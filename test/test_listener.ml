(* The socket front end all three roles share: the exception guard around
   handler calls, concurrent stops, and the socket-path check every role's
   config validation goes through.  A toy handler stands in for a role. *)

module P = Rserver.Protocol
module C = Rserver.Client
module Listener = Rserver.Listener
module Pool = Rserver.Pool
module Metrics = Rserver.Metrics

let unique =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%d-l%d" (Unix.getpid ()) !n

let sock_path () = Filename.concat "/tmp" ("ruid-" ^ unique () ^ ".sock")

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let err_body = function
  | P.Err m -> m
  | r -> Alcotest.failf "expected ERR, got %s" (P.response_to_string r)

let test_raising_handler () =
  let pool = Pool.create ~kind:`Threads ~workers:1 ~max_queue:4 () in
  let handler : P.request -> Listener.action = function
    | P.Count "fail" -> Listener.Inline (fun () -> failwith "inline boom")
    | P.Count "raise" -> Listener.Inline (fun () -> raise Not_found)
    | P.Query "fail" -> Listener.Queued (pool, fun () -> failwith "queued boom")
    | P.Query "raise" -> Listener.Queued (pool, fun () -> raise Exit)
    | _ -> Listener.Inline (fun () -> P.Ok_ "fine")
  in
  let metrics = Metrics.create () in
  let sock = sock_path () in
  let l = Listener.create ~metrics sock in
  Listener.serve l ~teardown:(fun () -> Pool.shutdown pool) handler;
  Fun.protect ~finally:(fun () -> Listener.stop l) @@ fun () ->
  C.with_connection sock @@ fun c ->
  Alcotest.(check string) "inline Failure" "inline boom"
    (err_body (C.request c (P.Count "fail")));
  Alcotest.(check string) "queued Failure" "queued boom"
    (err_body (C.request c (P.Query "fail")));
  Alcotest.(check bool) "inline exception" true
    (contains
       (err_body (C.request c (P.Count "raise")))
       "internal error: Not_found");
  Alcotest.(check bool) "queued exception" true
    (contains
       (err_body (C.request c (P.Query "raise")))
       "internal error: Stdlib.Exit");
  (* the same connection carries on *)
  Alcotest.(check string) "node verb" "OK pong"
    (P.response_to_string (C.request c P.Ping));
  Alcotest.(check string) "handler verb" "OK fine"
    (P.response_to_string (C.request c (P.Count "//x")));
  Alcotest.(check int) "no session lost" 0 (Metrics.session_errors metrics);
  Alcotest.(check int) "nothing escaped the pool" 0 (Metrics.dropped metrics);
  Alcotest.(check int) "four ERR replies counted" 4
    (Metrics.summary metrics).Metrics.err

let test_concurrent_stop () =
  let metrics = Metrics.create () in
  let sock = sock_path () in
  let l = Listener.create ~metrics sock in
  let teardowns = Atomic.make 0 in
  (* a slow teardown keeps the first stop in progress while the second
     caller arrives *)
  let teardown () =
    Thread.delay 0.1;
    Atomic.incr teardowns
  in
  Listener.serve l ~teardown (fun _ -> Listener.Inline (fun () -> P.Ok_ ""));
  (* an idle session: stop must wake it and join it *)
  let idle = C.connect sock in
  Alcotest.(check string) "idle session up" "OK pong"
    (P.response_to_string (C.request idle P.Ping));
  let returned = Atomic.make 0 in
  let callers =
    List.init 2 (fun _ ->
        Thread.create
          (fun () ->
            Listener.stop l;
            Atomic.incr returned)
          ())
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while Atomic.get returned < 2 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check int) "both stop callers returned" 2 (Atomic.get returned);
  List.iter Thread.join callers;
  Alcotest.(check int) "teardown ran once" 1 (Atomic.get teardowns);
  Alcotest.(check bool) "stopped" false (Listener.running l);
  Alcotest.(check bool) "socket removed" false (Sys.file_exists sock);
  (match C.request idle P.Ping with
  | r -> Alcotest.failf "idle session still served: %s" (P.response_to_string r)
  | exception _ -> ());
  C.close idle;
  (* and a late caller returns at once *)
  Listener.stop l;
  Listener.wait l

let test_role_socket_paths () =
  let long = "/tmp/" ^ String.make 155 'x' in
  Alcotest.(check int) "a 160-byte path" 160 (String.length long);
  let rejects what = function
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s accepted" what
  in
  let replica socket_path =
    Rserver.Service.validate_config
      { (Rserver.Service.default_config ~socket_path ~data_dir:"/tmp/r" ())
        with
        upstream = Some "/tmp/p.sock" }
  and router socket_path =
    Rserver.Router.validate_config
      (Rserver.Router.default_config ~socket_path
         ~shard_sockets:[| "/tmp/s0.sock" |] ())
  in
  rejects "replica: empty path" (replica "");
  rejects "replica: 160-byte path" (replica long);
  rejects "router: empty path" (router "");
  rejects "router: 160-byte path" (router long);
  Alcotest.(check bool) "replica: a short path" true
    (replica "/tmp/r.sock" = Ok ());
  Alcotest.(check bool) "router: a short path" true
    (router "/tmp/rt.sock" = Ok ());
  Alcotest.check_raises "Listener.create checks the path too"
    (Invalid_argument
       "Listener.create: socket path longer than 100 bytes (sockaddr_un \
        limit)")
    (fun () -> ignore (Listener.create ~metrics:(Metrics.create ()) long))

(* ------------------------------------------------------------------ *)
(* Admission: a free slot runs the verb where it arrived               *)
(* ------------------------------------------------------------------ *)

(* Submit the way the listener does: the job fills a cell, and the
   submitter reads it, whether the job ran on the submitting thread or
   waited for a worker. *)
let submit_and_wait pool job =
  let iv = Listener.Ivar.create () in
  let outcome =
    Pool.run_or_submit pool (fun () -> Listener.Ivar.fill iv (job ()))
  in
  (match outcome with
  | `Ran | `Queued -> ignore (Listener.Ivar.read iv)
  | `Refused -> ());
  outcome

(* Eight submitters over a two-slot pool: some jobs run on their
   submitter's thread, the rest wait in the queue, and never more than two
   run at once. *)
let test_threads_pool_bound () =
  let workers = 2 in
  let pool = Pool.create ~kind:`Threads ~workers ~max_queue:64 () in
  let mu = Mutex.create () in
  let running = ref 0 and peak = ref 0 in
  let ran = Atomic.make 0 and queued = Atomic.make 0 in
  let misplaced = Atomic.make 0 and refused = Atomic.make 0 in
  let job () =
    Mutex.lock mu;
    incr running;
    peak := max !peak !running;
    Mutex.unlock mu;
    Thread.delay 0.002;
    Mutex.lock mu;
    decr running;
    Mutex.unlock mu;
    Thread.id (Thread.self ())
  in
  let submitters =
    List.init 8 (fun _ ->
        Thread.create
          (fun () ->
            let me = Thread.id (Thread.self ()) in
            for _ = 1 to 15 do
              let ran_on = ref (-1) in
              match
                submit_and_wait pool (fun () -> ran_on := job ())
              with
              | `Ran ->
                Atomic.incr ran;
                if !ran_on <> me then Atomic.incr misplaced
              | `Queued -> Atomic.incr queued
              | `Refused -> Atomic.incr refused
            done)
          ())
  in
  List.iter Thread.join submitters;
  Pool.shutdown pool;
  Alcotest.(check int) "none refused with room in the queue" 0
    (Atomic.get refused);
  Alcotest.(check int) "inline jobs ran on their submitter" 0
    (Atomic.get misplaced);
  Alcotest.(check int) "every job ran" 120 (Atomic.get ran + Atomic.get queued);
  Alcotest.(check bool) "some jobs ran on their submitter" true
    (Atomic.get ran > 0);
  Alcotest.(check bool) "some jobs waited for a slot" true
    (Atomic.get queued > 0);
  Alcotest.(check bool)
    (Printf.sprintf "at most %d jobs at once (saw %d)" workers !peak)
    true (!peak <= workers)

(* With the only slot held by a verb running on its session thread and
   the one queue place taken, the next request is refused outright; the
   queued one, started past the deadline, answers BUSY too. *)
let test_full_pool_busy_and_deadline () =
  let pool = Pool.create ~kind:`Threads ~workers:1 ~max_queue:1 () in
  let gate = Listener.Ivar.create () in
  let holding = Atomic.make false in
  let handler = function
    | P.Count "hold" ->
      Listener.Queued
        ( pool,
          fun () ->
            Atomic.set holding true;
            Listener.Ivar.read gate;
            P.Ok_ "held" )
    | _ -> Listener.Queued (pool, fun () -> P.Ok_ "ran")
  in
  let metrics = Metrics.create () in
  let sock = sock_path () in
  let l = Listener.create ~deadline_ms:50 ~metrics sock in
  Listener.serve l ~teardown:(fun () -> Pool.shutdown pool) handler;
  (* a failed check must not leave the holder parked: stop joins it *)
  Fun.protect
    ~finally:(fun () ->
      Listener.Ivar.fill gate ();
      Listener.stop l)
  @@ fun () ->
  let ask_async req =
    let reply = ref None in
    let th =
      Thread.create
        (fun () ->
          reply := Some (C.with_connection sock (fun c -> C.request c req)))
        ()
    in
    (th, reply)
  in
  let wait_for what pred =
    let deadline = Unix.gettimeofday () +. 10. in
    while (not (pred ())) && Unix.gettimeofday () < deadline do
      Thread.delay 0.005
    done;
    if not (pred ()) then Alcotest.failf "timed out waiting for %s" what
  in
  let holder, held = ask_async (P.Count "hold") in
  wait_for "the slot to be held" (fun () -> Atomic.get holding);
  let late, late_reply = ask_async (P.Count "late") in
  wait_for "the queued request" (fun () -> Pool.queue_depth pool = 1);
  (match C.with_connection sock (fun c -> C.request c (P.Count "x")) with
  | P.Busy "queue full" -> ()
  | r -> Alcotest.failf "expected BUSY queue full, got %s"
           (P.response_to_string r));
  Thread.delay 0.08;
  Listener.Ivar.fill gate ();
  Thread.join holder;
  Thread.join late;
  let show = function
    | Some r -> P.response_to_string r
    | None -> "(no reply)"
  in
  Alcotest.(check string) "the holder answers" "OK held" (show !held);
  Alcotest.(check string) "the queued request expired"
    "BUSY deadline exceeded in queue" (show !late_reply)

(* A domain pool exists to put work on another core: even idle, with
   every slot free, it never runs a job on the submitter. *)
let test_domains_pool_hands_off () =
  let pool = Pool.create ~kind:`Domains ~workers:2 ~max_queue:8 () in
  let caller = Domain.self () in
  let on_caller = Atomic.make 0 in
  for _ = 1 to 20 do
    match
      submit_and_wait pool (fun () ->
          if Domain.self () = caller then Atomic.incr on_caller)
    with
    | `Queued -> ()
    | `Ran -> Alcotest.fail "a domain pool ran a job on its caller"
    | `Refused -> Alcotest.fail "an idle domain pool refused a job"
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "no job ran on the caller's domain" 0
    (Atomic.get on_caller)

let suite =
  [
    Alcotest.test_case "raising handler answers ERR, session continues"
      `Quick test_raising_handler;
    Alcotest.test_case "concurrent stop callers all return" `Quick
      test_concurrent_stop;
    Alcotest.test_case "role configs reject bad socket paths" `Quick
      test_role_socket_paths;
    Alcotest.test_case "threads pool: at most workers jobs, inline or queued"
      `Quick test_threads_pool_bound;
    Alcotest.test_case "slot held, queue full: BUSY, then deadline BUSY"
      `Quick test_full_pool_busy_and_deadline;
    Alcotest.test_case "domains pool never runs a job on its caller" `Quick
      test_domains_pool_hands_off;
  ]
