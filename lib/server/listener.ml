(* ------------------------------------------------------------------ *)
(* One-shot synchronization cell: session threads park on it while a    *)
(* worker (or a commit pipeline) computes their reply.                  *)
(* ------------------------------------------------------------------ *)

module Ivar = struct
  type 'a t = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

  let create () = { m = Mutex.create (); c = Condition.create (); v = None }

  (* The first fill decides: a later one (a failure handler reporting on
     a batch whose replies were already given) is dropped. *)
  let fill t x =
    Mutex.lock t.m;
    if t.v = None then begin
      t.v <- Some x;
      Condition.signal t.c
    end;
    Mutex.unlock t.m

  let read t =
    Mutex.lock t.m;
    while t.v = None do
      Condition.wait t.c t.m
    done;
    let x = Option.get t.v in
    Mutex.unlock t.m;
    x
end

type action =
  | Inline of (unit -> Protocol.response)
  | Queued of Pool.t * (unit -> Protocol.response)

(* sockaddr_un paths are limited to ~104 bytes portably. *)
let max_socket_path = 100

let check_socket_path path =
  if path = "" then Error "socket path must not be empty"
  else if String.length path > max_socket_path then
    Error
      (Printf.sprintf "socket path longer than %d bytes (sockaddr_un limit)"
         max_socket_path)
  else Ok ()

type t = {
  socket_path : string;
  metrics : Metrics.t;
  deadline_ms : int;
  listen_fd : Unix.file_descr;
  mutable teardown : unit -> unit;
  mutable accept_thread : Thread.t option;
  sessions : (int, Unix.file_descr * Thread.t) Hashtbl.t;
  sessions_mu : Mutex.t;
  mutable next_session : int;
  state_mu : Mutex.t;
  state_cond : Condition.t;
  mutable state : [ `Running | `Stopping | `Stopped ];
}

let create ?(deadline_ms = 0) ~metrics socket_path =
  (match check_socket_path socket_path with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Listener.create: " ^ msg));
  (* A peer closing its socket before reading a reply must surface as
     EPIPE on the write — caught per session — not as a process-killing
     SIGPIPE.  (No-op on platforms without the signal.) *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if Sys.file_exists socket_path then Sys.remove socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  {
    socket_path;
    metrics;
    deadline_ms;
    listen_fd;
    teardown = ignore;
    accept_thread = None;
    sessions = Hashtbl.create 16;
    sessions_mu = Mutex.create ();
    next_session = 0;
    state_mu = Mutex.create ();
    state_cond = Condition.create ();
    state = `Running;
  }

let running t =
  Mutex.lock t.state_mu;
  let r = t.state = `Running in
  Mutex.unlock t.state_mu;
  r

let wait t =
  Mutex.lock t.state_mu;
  while t.state <> `Stopped do
    Condition.wait t.state_cond t.state_mu
  done;
  Mutex.unlock t.state_mu

let stop t =
  let proceed =
    Mutex.lock t.state_mu;
    let p = t.state = `Running in
    if p then t.state <- `Stopping;
    Mutex.unlock t.state_mu;
    p
  in
  (* someone else is stopping (or stopped): wait for them *)
  if not proceed then wait t
  else begin
    (* 1. no new connections.  A thread parked in accept() on an AF_UNIX
       socket is not reliably woken by shutdown()/close(), so wake it the
       portable way: hand it one last dummy connection.  The accept loop
       rechecks the state and exits. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_RECEIVE
     with Unix.Unix_error _ -> ());
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_UNIX t.socket_path)
        with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* 2. no new requests: sessions see EOF after their in-flight reply *)
    Mutex.lock t.sessions_mu;
    let sess = Hashtbl.fold (fun _ v acc -> v :: acc) t.sessions [] in
    Mutex.unlock t.sessions_mu;
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      sess;
    List.iter (fun (_, th) -> Thread.join th) sess;
    (* 3. the role's own teardown, with every session joined *)
    let finally () =
      (try Sys.remove t.socket_path with Sys_error _ -> ());
      Mutex.lock t.state_mu;
      t.state <- `Stopped;
      Condition.broadcast t.state_cond;
      Mutex.unlock t.state_mu
    in
    Fun.protect ~finally t.teardown
  end

let request_stop t =
  (* SHUTDOWN arrives on a session thread; stop joins session threads, so
     it must run elsewhere. *)
  ignore (Thread.create (fun () -> try stop t with _ -> ()) ())

(* Every handler call, inline or queued, runs under this guard: a raising
   verb costs its request an [ERR], never the session or the worker. *)
let guard f =
  try f () with
  | Failure msg -> Protocol.Err msg
  | e -> Protocol.Err ("internal error: " ^ Printexc.to_string e)

let handle_frame t handler oc payload =
  let t0 = Unix.gettimeofday () in
  let reply verb response =
    Protocol.write_frame oc (Protocol.response_to_string response);
    let outcome =
      match response with
      | Protocol.Ok_ _ -> `Ok
      | Protocol.Err _ -> `Err
      | Protocol.Busy _ -> `Busy
    in
    Metrics.record t.metrics ~verb ~outcome
      ~latency_ns:((Unix.gettimeofday () -. t0) *. 1e9)
  in
  match Protocol.parse_request payload with
  | Error msg -> reply "INVALID" (Protocol.Err msg)
  | Ok req -> (
    let verb = Protocol.verb req in
    match req with
    (* The node-level verbs are the same on every role, and bypass any
       admission queue: they must stay observable exactly when the queue
       is saturated. *)
    | Protocol.Ping -> reply verb (Protocol.Ok_ "pong")
    | Protocol.Stats -> reply verb (Protocol.Ok_ (Metrics.render t.metrics))
    | Protocol.Shutdown ->
      reply verb (Protocol.Ok_ "stopping");
      request_stop t
    | _ -> (
      match handler req with
      | Inline f -> reply verb (guard f)
      | Queued (pool, f) ->
        let deadline =
          if t.deadline_ms = 0 then infinity
          else t0 +. (float_of_int t.deadline_ms /. 1000.)
        in
        let iv = Ivar.create () in
        let job () =
          Ivar.fill iv
            (if Unix.gettimeofday () > deadline then
               Protocol.Busy "deadline exceeded in queue"
             else guard f)
        in
        (* A free slot runs the job right here: the hop to a worker costs
           two wake-ups and, on a systhread pool, buys no parallelism. *)
        match Pool.run_or_submit ~label:verb pool job with
        | `Ran | `Queued -> reply verb (Ivar.read iv)
        | `Refused -> reply verb (Protocol.Busy "queue full")))

let session_loop t handler fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match Protocol.read_frame ic with
    | None -> ()
    | Some payload ->
      handle_frame t handler oc payload;
      loop ()
  in
  (* A peer that drops mid-frame or vanishes before reading its reply
     (EPIPE on the write — surfaced as Sys_error/Unix_error with SIGPIPE
     ignored) ends this session alone, counted, never the process. *)
  (try loop () with
  | Protocol.Protocol_error _ | End_of_file | Sys_error _ | Unix.Unix_error _
    ->
    Metrics.record_session_error t.metrics);
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t handler =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ when not (running t) ->
      (* the wake-up connection made by stop, or a late client *)
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | fd, _ ->
      let id =
        Mutex.lock t.sessions_mu;
        let id = t.next_session in
        t.next_session <- id + 1;
        Mutex.unlock t.sessions_mu;
        id
      in
      let th =
        Thread.create
          (fun () ->
            session_loop t handler fd;
            Mutex.lock t.sessions_mu;
            Hashtbl.remove t.sessions id;
            Mutex.unlock t.sessions_mu)
          ()
      in
      Mutex.lock t.sessions_mu;
      (* A finished session may already have run its removal, leaving a
         stale entry here; stop tolerates that (shutdown on a closed fd
         and join on a dead thread are both harmless). *)
      Hashtbl.replace t.sessions id (fd, th);
      Mutex.unlock t.sessions_mu;
      loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let serve t ~teardown handler =
  t.teardown <- teardown;
  t.accept_thread <- Some (Thread.create (accept_loop t) handler)
