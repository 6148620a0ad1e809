(* The serving benchmark's load generator.

     loadgen.exe --ruidtool PATH --workload query|update|ingest
                 --seed N --seconds S --trace 0|1

   Generates the workload's inputs from the seed, launches the deployment
   as separate [ruidtool serve|replica|router] processes, drives it over at
   most two connections, checks every answer, and prints every metric by
   name and unit.  The last line of standard output is the JSON result:
   end-to-end metrics untraced, per-layer metrics traced.  The exit code
   is 0 only when every operation succeeded with a correct answer. *)

let usage () =
  prerr_endline
    "usage: loadgen.exe --ruidtool PATH --workload query|update|ingest \
     --seed N --seconds S --trace 0|1";
  exit 2

type args = {
  ruidtool : string;
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
}

let parse_args () =
  let a = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] a in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let args =
    {
      ruidtool = get "ruidtool";
      workload = get "workload";
      seed = int "seed";
      seconds = int "seconds";
      trace = (match get "trace" with "0" -> false | "1" -> true | _ -> usage ());
    }
  in
  if args.seconds < 1 then usage ();
  if not (List.mem args.workload [ "query"; "update"; "ingest" ]) then usage ();
  args

(* Whole-run watchdog: a deployment that stops answering must end the run
   with a failure, never hang it. *)
let watchdog_s = 175

let () =
  let args = parse_args () in
  let root = Sys.getcwd () in
  let ruidtool =
    if Filename.is_relative args.ruidtool then Filename.concat root args.ruidtool
    else args.ruidtool
  in
  if not (Sys.file_exists ruidtool) then begin
    prerr_endline ("loadgen: no ruidtool binary at " ^ ruidtool);
    exit 2
  end;
  let results = Filename.concat root ".perfbench/results" in
  Proc.mkdir_p results;
  let run_dir =
    Filename.concat root
      (Printf.sprintf ".perfbench/run-%s-%d-%d" args.workload args.seed
         (Unix.getpid ()))
  in
  Proc.rm_rf run_dir;
  Proc.mkdir_p run_dir;
  Sys.chdir run_dir;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let abort why =
    Sys.Signal_handle
      (fun _ ->
        prerr_endline ("loadgen: " ^ why ^ "; stopping the deployment");
        Proc.stop_all ();
        Sys.chdir root;
        Proc.rm_rf run_dir;
        exit 3)
  in
  Sys.set_signal Sys.sigalrm (abort "watchdog expired");
  Sys.set_signal Sys.sigterm (abort "terminated");
  Sys.set_signal Sys.sigint (abort "interrupted");
  ignore (Unix.alarm watchdog_s);
  let ctx =
    {
      Bench.ruidtool;
      workload = args.workload;
      seed = args.seed;
      seconds = args.seconds;
      trace = args.trace;
      results;
      report = Report.create ();
    }
  in
  let code =
    match
      match args.workload with
      | "query" -> Bench.query ctx
      | "update" -> Bench.update ctx
      | _ -> Bench.ingest ctx
    with
    | () -> Bench.finish ctx
    | exception Conn.Deployment_dead why ->
      Report.fail ctx.Bench.report ("deployment stopped answering: " ^ why);
      Proc.stop_all ();
      Bench.finish ~dead:true ctx
  in
  Sys.chdir root;
  Proc.rm_rf run_dir;
  exit code
