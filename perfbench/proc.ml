(* Deployment processes: launch, readiness, memory, teardown.

   Every process runs with the run directory as its working directory, so
   socket paths stay short and relative whatever the checkout's path. *)

type t = { name : string; pid : int; socket : string; mutable alive : bool }

let launched : t list ref = ref []

let spawn ~ruidtool ~name ~socket args =
  let log =
    Unix.openfile (name ^ ".log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv = Array.of_list (ruidtool :: args) in
  let pid = Unix.create_process ruidtool argv Unix.stdin log log in
  Unix.close log;
  let p = { name; pid; socket; alive = true } in
  launched := p :: !launched;
  p

(* Reap [p] if it has exited; true when it is gone. *)
let exited p =
  if not p.alive then true
  else
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ -> false
    | _ -> p.alive <- false; true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> p.alive <- false; true

let wait_exit p ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (exited p)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  exited p

let request_shutdown p =
  match Rserver.Client.connect p.socket with
  | exception Unix.Unix_error _ -> ()
  | c ->
    (try
       ignore
         (Rserver.Client.request_timeout c ~timeout_ms:2_000
            Rserver.Protocol.Shutdown)
     with _ -> ());
    Rserver.Client.close c

(* Stop [p]: the SHUTDOWN verb (graceful: admitted work drains, files are
   left recoverable), then SIGKILL if it has not exited after [grace]
   seconds.  Always waits for the exit. *)
let stop ?(grace = 10.) p =
  if not (exited p) then begin
    request_shutdown p;
    if not (wait_exit p ~timeout:grace) then begin
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_exit p ~timeout:30.)
    end
  end;
  launched := List.filter (fun q -> q.pid <> p.pid) !launched

let stop_all () = List.iter (fun p -> stop ~grace:5. p) !launched

(* Peak resident set (VmHWM) of a live process, in KiB. *)
let vm_hwm_kb p =
  match open_in (Printf.sprintf "/proc/%d/status" p.pid) with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> scan ()
      | exception End_of_file -> 0
    in
    let kb = scan () in
    close_in ic;
    kb

(* The machine's CPU time so far, from /proc/stat: (stolen, total) in
   clock ticks, summed over every CPU.  Stolen time is time a virtual CPU
   was ready to run while its host ran something else. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | "cpu" :: fields ->
      let v = List.map (fun f -> Option.value ~default:0 (int_of_string_opt f)) fields in
      (* user nice system idle iowait irq softirq steal guest guest_nice;
         guests are already counted in user and nice *)
      let total = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) v) in
      ((match List.nth_opt v 7 with Some s -> s | None -> 0), total)
    | _ -> (0, 0)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let file_bytes path = (Unix.stat path).Unix.st_size

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path
