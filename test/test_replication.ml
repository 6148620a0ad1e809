(* WAL-shipping replication: bootstrap and live-stream convergence
   (byte-identical replies), torn-stream resumption under an injected
   fault plan, restart resume, rotation catch-up from archived segments,
   fenced failover with a promoted replica serving writes to the rest of
   the chain, and fsck-cleanliness of every data directory throughout. *)

module Dom = Rxml.Dom
module P = Rserver.Protocol
module C = Rserver.Client
module Service = Rserver.Service
module Wal = Rstorage.Wal
module Fault = Rstorage.Fault

let unique =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%d-%d" (Unix.getpid ()) !n

(* Names carry the pid, and a directory an earlier run left behind can
   hold the same name once the pid comes round again: take the next. *)
let rec temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ()) ("ruid-repl-" ^ unique ())
  in
  match Unix.mkdir d 0o755 with
  | () -> d
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> temp_dir ()

let sock_path () = Filename.concat "/tmp" ("ruid-r" ^ unique () ^ ".sock")

let doc_of_string s = Dom.root_element (Rxml.Parser.parse_string s)

let lib_doc () =
  doc_of_string
    "<lib><book><title>a</title><author>x</author></book><book><title>b</title></book><journal><title>c</title></journal></lib>"

let ok_body = function
  | P.Ok_ body -> body
  | P.Err m -> Alcotest.failf "unexpected ERR %s" m
  | P.Busy m -> Alcotest.failf "unexpected BUSY %s" m

let with_primary ?(wal_segment_bytes = 0) ?(epoch = 1) ?(commit_groups = 0)
    ?(workers = 2) ?(max_area_size = 8) docs f =
  let cfg =
    {
      Service.socket_path = sock_path ();
      data_dir = temp_dir ();
      workers;
      max_queue = 32;
      deadline_ms = 0;
      max_area_size;
      max_depth = 10_000;
      domains = 0;
      cache_mb = 0;
      commit_interval_us = 0;
      commit_max_batch = 64;
      commit_groups;
      wal_segment_bytes;
      plan_cache = 64;
      epoch;
      upstream = None;
      poll_ms = 500;
    }
  in
  let t = Service.start cfg docs in
  Fun.protect ~finally:(fun () -> Service.stop t) (fun () -> f cfg t)

let replica_config ?(poll_ms = 25) ~primary () =
  { (Service.default_config ~socket_path:(sock_path ())
       ~data_dir:(temp_dir ()) ())
    with
    workers = 2;
    max_queue = 32;
    plan_cache = 64;
    upstream = Some primary;
    poll_ms }

let with_replica ?chaos cfg f =
  let t = Service.start ?chaos cfg [] in
  Fun.protect ~finally:(fun () -> Service.stop t) (fun () -> f t)

let wait_until ?(timeout_s = 20.) ?(what = "condition") pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let wait_version r v =
  wait_until ~what:(Printf.sprintf "replica to reach v=%d" v) (fun () ->
      (Service.snapshot r).Rserver.Snapshot.version >= v)

(* The read probes whose replies must be byte-identical between a
   caught-up replica and its upstream.  EXPLAIN is excluded on purpose:
   its output includes measured per-execution timings. *)
let probes =
  [
    P.Query "//book"; P.Query "//title"; P.Query "//book/title";
    P.Query "//inserted"; P.Count "//book"; P.Count "//title";
    P.Count "//inserted"; P.Check "lib";
  ]

let replies sock =
  C.with_connection sock @@ fun c ->
  List.map (fun r -> P.response_to_string (C.request c r)) probes

let check_identical ~ctx a_sock b_sock =
  List.iter2
    (fun a b -> Alcotest.(check string) (ctx ^ ": reply identical") a b)
    (replies a_sock) (replies b_sock)

(* A seeded write mix against the primary: mostly inserts under low ranks
   (always valid), a few deletes of random ranks (rejected ones simply
   never reach the journal).  Returns the primary's published version. *)
let write_mix ~seed ~ops sock =
  let rng = Random.State.make [| seed |] in
  C.with_connection sock @@ fun c ->
  for i = 1 to ops do
    let op =
      if Random.State.int rng 5 = 0 then
        Wal.Delete { rank = 2 + Random.State.int rng 40 }
      else
        Wal.Insert
          {
            parent_rank = Random.State.int rng 3;
            pos = Random.State.int rng 2;
            tag = Printf.sprintf "inserted%d" i;
          }
    in
    ignore (C.request c (P.Update { doc = "lib"; op }))
  done;
  match C.request c P.Docs with
  | P.Ok_ body -> (
    match C.kv_int body "v" with
    | Some v -> v
    | None -> Alcotest.fail "DOCS reply lacks v=")
  | r -> Alcotest.failf "DOCS: %s" (P.response_to_string r)

let assert_fsck_clean ~ctx dir =
  let xml = Filename.concat dir "lib.xml" in
  let sidecar = Filename.concat dir "lib.ruid" in
  let wal = Filename.concat dir "lib.wal" in
  match Wal.fsck ~xml ~sidecar ~wal () with
  | Wal.Clean -> ()
  | st ->
    Alcotest.failf "%s: fsck of %s not clean: %a" ctx dir Wal.pp_status st

let stats_kv sock key =
  C.with_connection sock @@ fun c ->
  match C.kv_int (ok_body (C.request c P.Stats)) key with
  | Some v -> v
  | None -> Alcotest.failf "STATS lacks %s=" key

(* The live journal generation of [doc] as the node at [sock] reports it
   in REPL STATE. *)
let gen_of sock doc =
  C.with_connection sock @@ fun c ->
  match
    Rserver.Replication.decode_state (ok_body (C.request c P.Repl_state))
  with
  | Error why -> Alcotest.failf "REPL STATE: %s" why
  | Ok st -> (
    match
      List.find_opt
        (fun d -> d.Rserver.Replication.name = doc)
        st.Rserver.Replication.s_docs
    with
    | Some d -> d.Rserver.Replication.gen
    | None -> Alcotest.failf "REPL STATE lacks %s" doc)

(* The journal family of "lib" in a data directory, as member kinds. *)
let members dir = Util.family_members (Filename.concat dir "lib.wal")
let bound = Util.family_bound

(* ------------------------------------------------------------------ *)
(* Bootstrap + live stream                                             *)
(* ------------------------------------------------------------------ *)

let test_bootstrap_and_live () =
  with_primary [ ("lib", lib_doc ()) ] @@ fun pcfg _service ->
  let v1 = write_mix ~seed:11 ~ops:6 pcfg.Service.socket_path in
  let rcfg = replica_config ~primary:pcfg.Service.socket_path () in
  with_replica rcfg @@ fun r ->
  (* bootstrap alone must already reach the primary's version *)
  wait_version r v1;
  check_identical ~ctx:"after bootstrap" pcfg.Service.socket_path
    rcfg.Service.socket_path;
  (* live writes stream over WAIT; replica converges without reconnect *)
  let v2 = write_mix ~seed:12 ~ops:8 pcfg.Service.socket_path in
  wait_version r v2;
  check_identical ~ctx:"after live writes" pcfg.Service.socket_path
    rcfg.Service.socket_path;
  Alcotest.(check int)
    "no reconnects on a healthy stream" 0
    (stats_kv rcfg.Service.socket_path "repl_reconnects");
  Alcotest.(check int)
    "caught up: zero version lag" 0
    (stats_kv rcfg.Service.socket_path "repl_lag_versions");
  Alcotest.(check int)
    "last applied sequence gauge" (v2 - 1)
    (stats_kv rcfg.Service.socket_path "repl_last_seq");
  (* writes are refused while following *)
  (C.with_connection rcfg.Service.socket_path @@ fun c ->
   match
     C.request c
       (P.Update
          { doc = "lib";
            op = Wal.Insert { parent_rank = 0; pos = 0; tag = "nope" } })
   with
   | P.Err m ->
     Alcotest.(check bool) "read-only error names the contract" true
       (String.length m > 0)
   | r -> Alcotest.failf "replica accepted a write: %s" (P.response_to_string r));
  assert_fsck_clean ~ctx:"replica mirror" rcfg.Service.data_dir

(* ------------------------------------------------------------------ *)
(* Torn-stream property: resume + converge over 10 seeds               *)
(* ------------------------------------------------------------------ *)

let test_torn_stream_seeds () =
  let tears = ref 0 in
  for seed = 1 to 10 do
    with_primary [ ("lib", lib_doc ()) ] @@ fun pcfg _service ->
    ignore (write_mix ~seed:(100 + seed) ~ops:4 pcfg.Service.socket_path);
    let chaos = Fault.plan ~seed ~p_short_write:0.4 () in
    let rcfg =
      replica_config ~poll_ms:20 ~primary:pcfg.Service.socket_path ()
    in
    with_replica ~chaos rcfg @@ fun r ->
    let v = write_mix ~seed ~ops:12 pcfg.Service.socket_path in
    wait_version r v;
    check_identical
      ~ctx:(Printf.sprintf "seed %d" seed)
      pcfg.Service.socket_path rcfg.Service.socket_path;
    assert_fsck_clean
      ~ctx:(Printf.sprintf "seed %d" seed)
      rcfg.Service.data_dir;
    tears :=
      !tears
      + List.length
          (List.filter
             (function Fault.Short_write _ -> true | _ -> false)
             (Fault.events chaos))
  done;
  (* the plan must actually have torn the stream somewhere across the ten
     runs, or the property tested nothing *)
  Alcotest.(check bool)
    (Printf.sprintf "fault plan injected tears (saw %d)" !tears)
    true (!tears > 0)

(* ------------------------------------------------------------------ *)
(* Restart: resume from the durable byte offset                        *)
(* ------------------------------------------------------------------ *)

let test_restart_resume () =
  with_primary [ ("lib", lib_doc ()) ] @@ fun pcfg _service ->
  let v1 = write_mix ~seed:21 ~ops:5 pcfg.Service.socket_path in
  let rcfg = replica_config ~primary:pcfg.Service.socket_path () in
  (with_replica rcfg @@ fun r -> wait_version r v1);
  (* replica is down; the primary moves on *)
  let v2 = write_mix ~seed:22 ~ops:7 pcfg.Service.socket_path in
  (* same data dir: bootstrap resumes from local files instead of
     re-mirroring, then catches up over the wire *)
  with_replica rcfg @@ fun r ->
  wait_version r v2;
  check_identical ~ctx:"after restart" pcfg.Service.socket_path
    rcfg.Service.socket_path;
  assert_fsck_clean ~ctx:"restarted mirror" rcfg.Service.data_dir

(* ------------------------------------------------------------------ *)
(* Rotation: catch up through archived segments                        *)
(* ------------------------------------------------------------------ *)

let test_rotation_catch_up () =
  (* a tiny segment threshold forces several rotations *)
  with_primary ~wal_segment_bytes:256 [ ("lib", lib_doc ()) ]
  @@ fun pcfg _service ->
  let v1 = write_mix ~seed:31 ~ops:40 pcfg.Service.socket_path in
  let gen_now () = gen_of pcfg.Service.socket_path "lib" in
  Alcotest.(check bool)
    (Printf.sprintf "primary rotated (gen %d)" (gen_now ()))
    true
    (gen_now () > 0);
  (* bootstrap against an already-rotated primary *)
  let rcfg = replica_config ~primary:pcfg.Service.socket_path () in
  with_replica rcfg @@ fun r ->
  wait_version r v1;
  check_identical ~ctx:"bootstrap past rotations" pcfg.Service.socket_path
    rcfg.Service.socket_path;
  (* now rotate several more times underneath a live follower *)
  let v2 = write_mix ~seed:32 ~ops:40 pcfg.Service.socket_path in
  wait_version r v2;
  check_identical ~ctx:"rotation under a live follower"
    pcfg.Service.socket_path rcfg.Service.socket_path;
  assert_fsck_clean ~ctx:"rotated mirror" rcfg.Service.data_dir

(* A primary that rotates after every commit while a writer runs: the
   follower's STATE poll routinely names a generation the primary has
   retired again by the time the follower fetches the active segment.
   The follower installs that generation from its archive on the same
   connection — no reconnect, no back-off — and converges byte for
   byte. *)
let test_rotation_race_no_reconnect () =
  with_primary ~wal_segment_bytes:1 [ ("lib", lib_doc ()) ]
  @@ fun pcfg _service ->
  let psock = pcfg.Service.socket_path in
  let rcfg = replica_config ~poll_ms:5 ~primary:psock () in
  with_replica rcfg @@ fun r ->
  let v = write_mix ~seed:47 ~ops:150 psock in
  wait_version r v;
  check_identical ~ctx:"rotation on every commit" psock
    rcfg.Service.socket_path;
  Alcotest.(check int) "no reconnects" 0
    (stats_kv rcfg.Service.socket_path "repl_reconnects");
  assert_fsck_clean ~ctx:"rotation race mirror" rcfg.Service.data_dir

(* After rotations under a live follower, the primary's journal family
   and the follower's mirror of it are both the bound of the live
   generation, and both fsck clean. *)
let test_family_bound_follower () =
  with_primary ~wal_segment_bytes:256 [ ("lib", lib_doc ()) ]
  @@ fun pcfg _service ->
  let psock = pcfg.Service.socket_path in
  let rcfg = replica_config ~primary:psock () in
  with_replica rcfg @@ fun r ->
  let rsock = rcfg.Service.socket_path in
  let v = write_mix ~seed:51 ~ops:60 psock in
  wait_version r v;
  (* a rotation runs after its batch's acks: wait for both to settle *)
  wait_until ~what:"primary and follower on one bounded generation"
    (fun () ->
      let g = gen_of psock "lib" in
      g = gen_of rsock "lib"
      && members pcfg.Service.data_dir = bound g
      && members rcfg.Service.data_dir = bound g);
  let g = gen_of psock "lib" in
  Alcotest.(check bool) (Printf.sprintf "rotated (gen %d)" g) true (g >= 2);
  Alcotest.(check bool) "primary family is the bound" true
    (members pcfg.Service.data_dir = bound g);
  Alcotest.(check bool) "follower family is the bound" true
    (members rcfg.Service.data_dir = bound g);
  check_identical ~ctx:"bounded families" psock rsock;
  assert_fsck_clean ~ctx:"primary" pcfg.Service.data_dir;
  assert_fsck_clean ~ctx:"follower" rcfg.Service.data_dir

(* A library of [n] books: large enough that a checkpoint pair outweighs
   a journal segment many times over. *)
let big_lib n =
  doc_of_string
    ("<lib>"
    ^ String.concat ""
        (List.init n (fun i ->
             Printf.sprintf
               "<book><title>t%d</title><author>a%d</author></book>" i i))
    ^ "<journal><title>c</title></journal></lib>")

let file_size p = (Unix.stat p).Unix.st_size

(* A follower stopped while the primary rotates three times or more
   restarts from its own files and converges through ONE checkpoint
   install: the pairs of the generations it missed are gone, and walking
   them cost a copy of the document each.  No reconnect either. *)
let test_stopped_follower_one_install () =
  with_primary ~wal_segment_bytes:512 [ ("lib", big_lib 400) ]
  @@ fun pcfg _service ->
  let psock = pcfg.Service.socket_path in
  let rcfg = replica_config ~primary:psock () in
  let v1 = write_mix ~seed:61 ~ops:10 psock in
  (with_replica rcfg @@ fun r -> wait_version r v1);
  let stopped_at =
    let wal = Filename.concat rcfg.Service.data_dir "lib.wal" in
    match (Wal.scan wal).Wal.checkpoint with
    | Some c -> c.Wal.gen
    | None -> 0
  in
  let v2 = write_mix ~seed:62 ~ops:150 psock in
  wait_until ~what:"the primary's family to settle" (fun () ->
      members pcfg.Service.data_dir = bound (gen_of psock "lib"));
  let g = gen_of psock "lib" in
  Alcotest.(check bool)
    (Printf.sprintf "primary rotated 3+ times while the follower was down \
                     (gen %d -> %d)" stopped_at g)
    true (g - stopped_at >= 3);
  let pair =
    let x, s =
      Wal.checkpoint_files (Filename.concat pcfg.Service.data_dir "lib.wal") g
    in
    file_size x + file_size s
  in
  let served0 = stats_kv psock "repl_served_bytes" in
  with_replica rcfg @@ fun r ->
  let rsock = rcfg.Service.socket_path in
  wait_version r v2;
  wait_until ~what:"the follower's family to settle" (fun () ->
      gen_of rsock "lib" = g && members rcfg.Service.data_dir = bound g);
  check_identical ~ctx:"after the checkpoint install" psock rsock;
  let fetched = stats_kv psock "repl_served_bytes" - served0 in
  Alcotest.(check bool)
    (Printf.sprintf "one checkpoint install (fetched %d bytes, pair %d)"
       fetched pair)
    true
    (fetched < 2 * pair);
  Alcotest.(check int) "no reconnects" 0 (stats_kv rsock "repl_reconnects");
  Alcotest.(check bool) "follower family is the bound" true
    (members rcfg.Service.data_dir = bound g);
  assert_fsck_clean ~ctx:"reinstalled mirror" rcfg.Service.data_dir

(* ------------------------------------------------------------------ *)
(* Commit pipelines: multi-group primary, byte-faithful mirror         *)
(* ------------------------------------------------------------------ *)

let read_file p =
  let ic = open_in_bin p in
  let b = really_input_string ic (in_channel_length ic) in
  close_in ic;
  b

let test_multi_group_catch_up () =
  (* Three documents hashed over four commit pipelines, written by
     concurrent per-document writers: the replica must converge to
     byte-identical replies AND byte-identical mirror files — WAL
     shipping copies journal bytes verbatim, so four pipelines
     interleaving their disjoint journals must not perturb a single
     byte of any one of them. *)
  let names = [ "alpha"; "beta"; "gamma" ] in
  let docs = List.map (fun n -> (n, lib_doc ())) names in
  with_primary ~commit_groups:4 ~workers:4 docs @@ fun pcfg _service ->
  let burst tag =
    let writer k name () =
      C.with_connection pcfg.Service.socket_path @@ fun c ->
      for i = 1 to 12 do
        ignore
          (C.request c
             (P.Update
                {
                  doc = name;
                  op =
                    Wal.Insert
                      {
                        parent_rank = 0;
                        pos = i mod 2;
                        tag = Printf.sprintf "inserted%s%d x%d" tag k i;
                      };
                }))
      done
    in
    let threads = List.mapi (fun k n -> Thread.create (writer k n) ()) names in
    List.iter Thread.join threads;
    C.with_connection pcfg.Service.socket_path @@ fun c ->
    match C.request c P.Docs with
    | P.Ok_ body -> (
      match C.kv_int body "v" with
      | Some v -> v
      | None -> Alcotest.fail "DOCS reply lacks v=")
    | r -> Alcotest.failf "DOCS: %s" (P.response_to_string r)
  in
  let v1 = burst "a" in
  let rcfg = replica_config ~primary:pcfg.Service.socket_path () in
  with_replica rcfg @@ fun r ->
  wait_version r v1;
  check_identical ~ctx:"multi-group bootstrap" pcfg.Service.socket_path
    rcfg.Service.socket_path;
  (* a second concurrent burst streams live over WAIT *)
  let v2 = burst "b" in
  wait_version r v2;
  check_identical ~ctx:"multi-group live stream" pcfg.Service.socket_path
    rcfg.Service.socket_path;
  (* mirror fidelity, document by document: journal and snapshot pair
     byte-identical once the stream drains *)
  List.iter
    (fun name ->
      List.iter
        (fun ext ->
          let file = name ^ ext in
          let pa = Filename.concat pcfg.Service.data_dir file
          and ra = Filename.concat rcfg.Service.data_dir file in
          wait_until
            ~what:(Printf.sprintf "%s to drain to the mirror" file)
            (fun () -> read_file pa = read_file ra);
          Alcotest.(check bool)
            (file ^ " byte-identical on the mirror")
            true
            (read_file pa = read_file ra))
        [ ".xml"; ".ruid"; ".wal" ];
      let xml = Filename.concat rcfg.Service.data_dir (name ^ ".xml")
      and sidecar = Filename.concat rcfg.Service.data_dir (name ^ ".ruid")
      and wal = Filename.concat rcfg.Service.data_dir (name ^ ".wal") in
      match Wal.fsck ~xml ~sidecar ~wal () with
      | Wal.Clean -> ()
      | st ->
        Alcotest.failf "mirror of %s not clean: %a" name Wal.pp_status st)
    names

(* ------------------------------------------------------------------ *)
(* Membership: a document dropped upstream                             *)
(* ------------------------------------------------------------------ *)

let total_of sock req =
  C.with_connection sock @@ fun c ->
  match C.kv_int (ok_body (C.request c req)) "total" with
  | Some n -> n
  | None -> Alcotest.fail "reply lacks total="

let insert_x doc =
  P.Update { doc; op = Wal.Insert { parent_rank = 0; pos = 0; tag = "x" } }

(* Replicas mirror the document set fixed at bootstrap.  A DROPDOC
   upstream must neither stall a running replica (every pull round used
   to fail on the dropped document, so the documents after it were never
   polled) nor stop a new one from bootstrapping off the live set. *)
let test_follow_after_dropdoc () =
  with_primary [ ("a", lib_doc ()); ("b", lib_doc ()) ] @@ fun pcfg _ ->
  let psock = pcfg.Service.socket_path in
  let xs sock = total_of sock (P.Count_doc { doc = "b"; xpath = "//x" }) in
  let before = replica_config ~primary:psock () in
  with_replica before @@ fun _ ->
  ignore
    (ok_body (C.with_connection psock (fun c -> C.request c (P.Drop_doc "a"))));
  C.with_connection psock (fun c ->
      for _ = 1 to 5 do
        ignore (ok_body (C.request c (insert_x "b")))
      done);
  let rsock = before.Service.socket_path in
  wait_until ~timeout_s:10. ~what:"the running replica to follow b"
    (fun () -> xs rsock = 5);
  Alcotest.(check int) "no reconnects" 0 (stats_kv rsock "repl_reconnects");
  Alcotest.(check int) "the dropped document stays served" 2
    (total_of rsock (P.Count_doc { doc = "a"; xpath = "//book" }));
  let after = replica_config ~primary:psock () in
  with_replica after @@ fun _ ->
  let rsock = after.Service.socket_path in
  Alcotest.(check int) "a new replica mirrors the live set" 5 (xs rsock);
  match
    C.with_connection rsock (fun c ->
        C.request c (P.Count_doc { doc = "a"; xpath = "//book" }))
  with
  | P.Err _ -> ()
  | r ->
    Alcotest.failf "the dropped document was mirrored: %s"
      (P.response_to_string r)

(* Lag gauges cover the mirrored documents only.  The upstream's version
   stamp also counts ADDDOC, and the new document's journal is not
   mirrored, yet a replica that has applied every record of the documents
   it mirrors reads zero lag on both gauges. *)
let test_lag_zero_after_adddoc () =
  with_primary [ ("lib", lib_doc ()) ] @@ fun pcfg _ ->
  let psock = pcfg.Service.socket_path in
  let rcfg = replica_config ~primary:psock () in
  with_replica rcfg @@ fun r ->
  let rsock = rcfg.Service.socket_path in
  C.with_connection psock (fun c ->
      ignore
        (ok_body
           (C.request c (P.Add_doc { doc = "extra"; xml = "<a><b/><b/></a>" })));
      ignore (ok_body (C.request c (insert_x "lib"))));
  wait_version r 2;
  (* three more upstream requests: the puller has read STATE since *)
  let served = stats_kv psock "repl_served_requests" in
  wait_until ~timeout_s:10. ~what:"three more pull requests" (fun () ->
      stats_kv psock "repl_served_requests" >= served + 3);
  Alcotest.(check int) "repl_lag_versions" 0
    (stats_kv rsock "repl_lag_versions");
  Alcotest.(check int) "repl_lag_bytes" 0 (stats_kv rsock "repl_lag_bytes")

(* A bootstrap that fails after the replica bound its socket must leave
   neither the socket file nor a listener behind.  The upstream is a toy
   listener that lists a document and then refuses its files. *)
let test_failed_bootstrap_cleans_up () =
  let module L = Rserver.Listener in
  let upstream = sock_path () in
  let l = L.create ~metrics:(Rserver.Metrics.create ()) upstream in
  let state =
    Rserver.Replication.encode_state
      { Rserver.Replication.s_epoch = 1; s_version = 1;
        s_docs =
          [ { Rserver.Replication.name = "ghost"; gen = 0; seq = 0; size = 0 }
          ] }
  in
  L.serve l ~teardown:ignore (function
    | P.Repl_state -> L.Inline (fun () -> P.Ok_ state)
    | _ -> L.Inline (fun () -> P.Err "unknown document \"ghost\""));
  Fun.protect ~finally:(fun () -> L.stop l) @@ fun () ->
  let rcfg = replica_config ~primary:upstream () in
  (match Service.start rcfg [] with
  | r ->
    Service.stop r;
    Alcotest.fail "bootstrap off a refusing upstream succeeded"
  | exception Failure _ -> ());
  Alcotest.(check bool) "no socket left behind" false
    (Sys.file_exists rcfg.Service.socket_path)

(* ------------------------------------------------------------------ *)
(* A promoted replica's update that fails part-way                     *)
(* ------------------------------------------------------------------ *)

(* A chain [depth] elements deep: at max_area_size 64 it is one area, so
   every child inserted under its root raises the fan-out the area's
   62-bit local identifiers are enumerated with, until they overflow. *)
let chain depth =
  String.concat "" (List.init depth (Printf.sprintf "<c%d>"))
  ^ String.concat ""
      (List.init depth (fun i -> Printf.sprintf "</c%d>" (depth - 1 - i)))

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* Uid.Overflow is raised by [Wal.apply] after the tree changed.  On a
   promoted replica it must be answered like on a primary — the writer
   copy re-cloned from the published one — and nothing half-applied may
   reach the journal or a later update. *)
let test_promoted_overflow () =
  with_primary ~max_area_size:64 [ ("deep", doc_of_string (chain 16)) ]
  @@ fun pcfg _ ->
  let rcfg = replica_config ~primary:pcfg.Service.socket_path () in
  let xs =
    with_replica rcfg @@ fun _ ->
    C.with_connection rcfg.Service.socket_path @@ fun c ->
    ignore (ok_body (C.request c P.Promote));
    let rec drive acked =
      if acked > 200 then Alcotest.fail "no overflow after 200 inserts"
      else
        match C.request_timeout c ~timeout_ms:10_000 (insert_x "deep") with
        | P.Ok_ _ -> drive (acked + 1)
        | P.Err msg -> (acked, msg)
        | P.Busy msg -> Alcotest.failf "unexpected BUSY %s" msg
        | exception C.Timeout -> Alcotest.fail "no reply within 10 s"
    in
    let acked, msg = drive 0 in
    Alcotest.(check bool)
      (Printf.sprintf "overflow answered as a rejected update (%s)" msg)
      true
      (String.starts_with ~prefix:"update rejected: " msg
      && contains msg "Overflow");
    Alcotest.(check string) "the session carries on" "OK pong"
      (P.response_to_string (C.request c P.Ping));
    ignore (ok_body (C.request c (P.Check "deep")));
    let xs () =
      match
        C.kv_int
          (ok_body (C.request c (P.Count_doc { doc = "deep"; xpath = "//x" })))
          "total"
      with
      | Some n -> n
      | None -> Alcotest.fail "COUNTD lacks total="
    in
    Alcotest.(check int) "only acknowledged inserts visible" acked (xs ());
    ignore
      (ok_body
         (C.request c
            (P.Update { doc = "deep"; op = Wal.Delete { rank = 1 } })));
    ignore (ok_body (C.request c (P.Check "deep")));
    let last = xs () in
    Alcotest.(check int) "the delete applied" (acked - 1) last;
    last
  in
  (* the journal rebuilds exactly what was served *)
  let file ext = Filename.concat rcfg.Service.data_dir ("deep" ^ ext) in
  let recovery =
    Wal.replay ~xml:(file ".xml") ~sidecar:(file ".ruid") ~wal:(file ".wal") ()
  in
  let replayed =
    Dom.fold_preorder
      (fun n node -> if Dom.tag node = "x" then n + 1 else n)
      0
      (Ruid.Ruid2.root recovery.Wal.r2)
  in
  Alcotest.(check int) "replay of the replica's journal" xs replayed

(* ------------------------------------------------------------------ *)
(* A promoted node is a full primary                                   *)
(* ------------------------------------------------------------------ *)

let request sock req = C.with_connection sock (fun c -> C.request c req)

(* primary <- f1 <- f2; the primary stops and f1 is promoted.  Eight
   concurrent writers on f1 share fsyncs (group commit), f1 rotates at its
   segment threshold and keeps the family bound, f2 converges byte for
   byte across the rotation, and f1 then takes ADDDOC and DROPDOC.  The
   membership change comes last: f2 mirrors the document set fixed at its
   bootstrap, so its [v=] stops matching f1's after it. *)
let test_promoted_full_primary () =
  let pdir = temp_dir () in
  let pcfg =
    { (Service.default_config ~socket_path:(sock_path ()) ~data_dir:pdir ())
      with
      workers = 2; max_area_size = 8 }
  in
  let service = Service.start pcfg [ ("lib", lib_doc ()) ] in
  let stopped = ref false in
  Fun.protect ~finally:(fun () -> if not !stopped then Service.stop service)
  @@ fun () ->
  let psock = pcfg.Service.socket_path in
  let f1cfg =
    { (replica_config ~primary:psock ()) with
      workers = 9; wal_segment_bytes = 256; commit_interval_us = 2_000 }
  in
  let f1sock = f1cfg.Service.socket_path in
  with_replica f1cfg @@ fun f1 ->
  let f2cfg = replica_config ~primary:f1sock () in
  let f2sock = f2cfg.Service.socket_path in
  with_replica f2cfg @@ fun f2 ->
  let v1 = write_mix ~seed:71 ~ops:10 psock in
  wait_version f1 v1;
  wait_version f2 v1;
  Service.stop service;
  stopped := true;
  ignore (ok_body (request f1sock P.Promote));
  Alcotest.(check bool) "promoted" true (Service.role f1 = `Promoted);
  let batches = ref [] and mu = Mutex.create () in
  let writer k () =
    C.with_connection f1sock @@ fun c ->
    for i = 1 to 6 do
      let body =
        ok_body
          (C.request c
             (P.Update
                { doc = "lib";
                  op =
                    Wal.Insert
                      { parent_rank = 0; pos = 0;
                        tag = Printf.sprintf "promoted%d" ((k * 10) + i) } }))
      in
      Mutex.lock mu;
      batches := C.kv_int body "batch" :: !batches;
      Mutex.unlock mu
    done
  in
  List.iter Thread.join (List.init 8 (fun k -> Thread.create (writer k) ()));
  Alcotest.(check bool) "a reply names a batch of more than one" true
    (List.exists (fun b -> Option.value ~default:0 b > 1) !batches);
  Alcotest.(check bool) "fewer batches than records" true
    (stats_kv f1sock "wal_records" > stats_kv f1sock "wal_batches");
  Alcotest.(check bool) "the promoted node rotated" true
    (stats_kv f1sock "wal_rotations" >= 1);
  (* a rotation runs after its batch's acks: wait for it to settle *)
  wait_until ~what:"the promoted node's family at the bound" (fun () ->
      members f1cfg.Service.data_dir = bound (gen_of f1sock "lib"));
  let v2 =
    match C.kv_int (ok_body (request f1sock P.Docs)) "v" with
    | Some v -> v
    | None -> Alcotest.fail "DOCS reply lacks v="
  in
  Alcotest.(check int) "every write counted" (v1 + 48) v2;
  wait_version f2 v2;
  check_identical ~ctx:"chained across the promoted node's rotation" f1sock
    f2sock;
  assert_fsck_clean ~ctx:"promoted" f1cfg.Service.data_dir;
  assert_fsck_clean ~ctx:"chained" f2cfg.Service.data_dir;
  ignore
    (ok_body
       (request f1sock (P.Add_doc { doc = "extra"; xml = "<a><b/><b/></a>" })));
  ignore (ok_body (request f1sock (P.Drop_doc "extra")))

(* A following node refuses writes, with the texts clients match on. *)
let test_following_refuses_writes () =
  with_primary [ ("lib", lib_doc ()) ] @@ fun pcfg _ ->
  let rcfg = replica_config ~primary:pcfg.Service.socket_path () in
  with_replica rcfg @@ fun r ->
  let rsock = rcfg.Service.socket_path in
  Alcotest.(check bool) "following" true (Service.role r = `Following);
  Alcotest.(check string) "UPDATE"
    "ERR read-only replica: writes go to the primary (PROMOTE to fail over)"
    (P.response_to_string (request rsock (insert_x "lib")));
  Alcotest.(check string) "ADDDOC" "ERR ADDDOC: this node is a read-only replica"
    (P.response_to_string
       (request rsock (P.Add_doc { doc = "extra"; xml = "<a/>" })))

(* ------------------------------------------------------------------ *)
(* Fenced failover: 10-seed split-brain suite                          *)
(* ------------------------------------------------------------------ *)

(* One full failover story per seed: a chain primary <- f1 <- f2, a write
   mix, a hard primary stop, promotion of f1, more writes, and then the
   surviving pair must answer every probe byte-identically, every data
   directory must fsck clean, and bytes from behind the fence must be
   provably refused. *)
let failover_story seed =
  let pdir = temp_dir () in
  let pcfg =
    {
      Service.socket_path = sock_path ();
      data_dir = pdir;
      workers = 2;
      max_queue = 32;
      deadline_ms = 0;
      max_area_size = 8;
      max_depth = 10_000;
      domains = 0;
      cache_mb = 0;
      commit_interval_us = 0;
      commit_max_batch = 64;
      commit_groups = (if seed mod 2 = 0 then 2 else 1);
      wal_segment_bytes = (if seed mod 2 = 0 then 400 else 0);
      plan_cache = 64;
      epoch = 1;
      upstream = None;
      poll_ms = 500;
    }
  in
  let service = Service.start pcfg [ ("lib", lib_doc ()) ] in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () -> if not !stopped then Service.stop service)
  @@ fun () ->
  let f1cfg = replica_config ~poll_ms:20 ~primary:pcfg.Service.socket_path () in
  with_replica f1cfg @@ fun f1 ->
  let f2cfg =
    replica_config ~poll_ms:20 ~primary:f1cfg.Service.socket_path ()
  in
  with_replica f2cfg @@ fun f2 ->
  let v1 = write_mix ~seed ~ops:10 pcfg.Service.socket_path in
  wait_version f1 v1;
  wait_version f2 v1;
  (* hard-stop the primary (writes are quiesced: the mix returned) *)
  Service.stop service;
  stopped := true;
  (* promote the first follower; idempotent on a second call *)
  let promote_body =
    C.with_connection f1cfg.Service.socket_path @@ fun c ->
    let b = ok_body (C.request c P.Promote) in
    let b2 = ok_body (C.request c P.Promote) in
    Alcotest.(check (option int))
      "second PROMOTE is idempotent" (C.kv_int b "epoch")
      (C.kv_int b2 "epoch");
    b
  in
  Alcotest.(check (option int)) "promotion bumped the epoch" (Some 2)
    (C.kv_int promote_body "epoch");
  Alcotest.(check bool) "role flipped" true (Service.role f1 = `Promoted);
  (* the new primary accepts writes; f2 keeps following through it *)
  let v2 = write_mix ~seed:(seed * 7) ~ops:8 f1cfg.Service.socket_path in
  Alcotest.(check bool)
    (Printf.sprintf "failover writes advanced the version (%d > %d)" v2 v1)
    true (v2 > v1);
  wait_version f2 v2;
  check_identical
    ~ctx:(Printf.sprintf "seed %d survivors" seed)
    f1cfg.Service.socket_path f2cfg.Service.socket_path;
  Alcotest.(check int)
    "follower adopted the bumped epoch" 2
    (stats_kv f2cfg.Service.socket_path "repl_epoch");
  (* every data directory — including the dead primary's — fscks clean *)
  assert_fsck_clean ~ctx:(Printf.sprintf "seed %d primary" seed) pdir;
  assert_fsck_clean
    ~ctx:(Printf.sprintf "seed %d f1" seed)
    f1cfg.Service.data_dir;
  assert_fsck_clean
    ~ctx:(Printf.sprintf "seed %d f2" seed)
    f2cfg.Service.data_dir;
  (* fencing proof: a data directory that has followed epoch 2 refuses a
     node still serving epoch 1 — the deposed primary's bytes can never
     merge.  (A fresh service plays the deposed primary.) *)
  let deposed_dir = temp_dir () in
  let deposed =
    Service.start
      { pcfg with Service.socket_path = sock_path (); data_dir = deposed_dir }
      [ ("lib", lib_doc ()) ]
  in
  Fun.protect ~finally:(fun () -> Service.stop deposed) @@ fun () ->
  let fenced_cfg =
    {
      (replica_config ~primary:(Service.config deposed).Service.socket_path ())
      with
      Service.data_dir = f2cfg.Service.data_dir;
    }
  in
  match Service.start fenced_cfg [] with
  | t ->
    Service.stop t;
    Alcotest.failf "seed %d: epoch-1 primary was not fenced out" seed
  | exception Service.Fenced { seen; got } ->
    Alcotest.(check int) "fence height" 2 seen;
    Alcotest.(check int) "deposed epoch" 1 got

let test_failover_seeds () =
  for seed = 1 to 10 do
    failover_story seed
  done

let suite =
  [
    Alcotest.test_case "bootstrap + live stream byte-identical" `Quick
      test_bootstrap_and_live;
    Alcotest.test_case "torn stream resumes and converges (10 seeds)" `Slow
      test_torn_stream_seeds;
    Alcotest.test_case "restart resumes from durable offset" `Quick
      test_restart_resume;
    Alcotest.test_case "rotation catch-up from archives" `Slow
      test_rotation_catch_up;
    Alcotest.test_case "multi-group primary: byte-faithful mirror" `Quick
      test_multi_group_catch_up;
    Alcotest.test_case "fenced failover split-brain (10 seeds)" `Slow
      test_failover_seeds;
    Alcotest.test_case "replicas keep following after a DROPDOC upstream"
      `Quick test_follow_after_dropdoc;
    Alcotest.test_case "lag gauges read zero after an upstream ADDDOC"
      `Quick test_lag_zero_after_adddoc;
    Alcotest.test_case "promoted replica rejects an overflowing update"
      `Quick test_promoted_overflow;
    Alcotest.test_case "failed bootstrap leaves no socket behind" `Quick
      test_failed_bootstrap_cleans_up;
    Alcotest.test_case "primary rotating on every commit: no reconnects"
      `Quick test_rotation_race_no_reconnect;
    Alcotest.test_case "family bound on primary and follower" `Quick
      test_family_bound_follower;
    Alcotest.test_case "stopped follower: one checkpoint install" `Quick
      test_stopped_follower_one_install;
    Alcotest.test_case "a promoted node is a full primary" `Quick
      test_promoted_full_primary;
    Alcotest.test_case "a following node refuses writes" `Quick
      test_following_refuses_writes;
  ]
