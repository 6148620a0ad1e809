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
    Rserver.Replica.validate_config
      (Rserver.Replica.default_config ~socket_path ~data_dir:"/tmp/r"
         ~primary:"/tmp/p.sock" ())
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

let suite =
  [
    Alcotest.test_case "raising handler answers ERR, session continues"
      `Quick test_raising_handler;
    Alcotest.test_case "concurrent stop callers all return" `Quick
      test_concurrent_stop;
    Alcotest.test_case "role configs reject bad socket paths" `Quick
      test_role_socket_paths;
  ]
