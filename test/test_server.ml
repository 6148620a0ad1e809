(* Concurrent document service: protocol round-trips, snapshot isolation
   under a live writer, admission control (BUSY, deadlines), graceful
   shutdown vs fsck, and thread safety of the storage counters. *)

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module P = Rserver.Protocol
module C = Rserver.Client
module Service = Rserver.Service
module Wal = Rstorage.Wal

let unique =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%d-%d" (Unix.getpid ()) !n

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      ("ruid-srv-" ^ unique ())
  in
  Unix.mkdir d 0o755;
  d

let sock_path () = Filename.concat "/tmp" ("ruid-" ^ unique () ^ ".sock")

let doc_of_string s = Dom.root_element (Rxml.Parser.parse_string s)

(* Raised by a test that caught the service stuck: a wedged service cannot
   drain, so [with_server] fails the test without stopping it. *)
exception Wedged of string

let with_server ?(workers = 2) ?(max_queue = 8) ?(deadline_ms = 0)
    ?(max_area_size = 8) ?(max_depth = 10_000) ?(domains = 0) ?(cache_mb = 0)
    ?(commit_interval_us = 0) ?(commit_max_batch = 64) ?(commit_groups = 0)
    ?(wal_segment_bytes = 0) ?(plan_cache = 256)
    ?(epoch = 1) ?data_dir docs f =
  let cfg =
    {
      Service.socket_path = sock_path ();
      data_dir = (match data_dir with Some d -> d | None -> temp_dir ());
      workers;
      max_queue;
      deadline_ms;
      max_area_size;
      max_depth;
      domains;
      cache_mb;
      commit_interval_us;
      commit_max_batch;
      commit_groups;
      wal_segment_bytes;
      plan_cache;
      epoch;
      upstream = None;
      poll_ms = 500;
    }
  in
  let t = Service.start cfg docs in
  match f cfg t with
  | v ->
    Service.stop t;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (match e with Wedged _ -> () | _ -> Service.stop t);
    Printexc.raise_with_backtrace e bt

let ok_body = function
  | P.Ok_ body -> body
  | P.Err m -> Alcotest.failf "unexpected ERR %s" m
  | P.Busy m -> Alcotest.failf "unexpected BUSY %s" m

let get_kv body key =
  match C.kv_int body key with
  | Some v -> v
  | None -> Alcotest.failf "reply %S lacks %s=" body key

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_request_roundtrip () =
  List.iter
    (fun r ->
      match P.parse_request (P.request_to_string r) with
      | Ok r' ->
        Alcotest.(check string)
          "round-trips" (P.request_to_string r) (P.request_to_string r')
      | Error e -> Alcotest.failf "no parse: %s" e)
    [
      P.Ping; P.Docs; P.Stats; P.Shutdown; P.Query "//a/b[1]";
      P.Count "//item//text"; P.Explain "//book[author]/title";
      P.Check "lib"; P.Sleep 25;
      P.Update { doc = "lib"; op = Wal.Insert { parent_rank = 3; pos = 0; tag = "x" } };
      P.Update { doc = "lib"; op = Wal.Delete { rank = 7 } };
      (* collection-tier verbs *)
      P.Query_doc { doc = "lib"; xpath = "//book[author]/title" };
      P.Count_doc { doc = "lib"; xpath = "//item//text" };
      P.Add_doc { doc = "fresh"; xml = "<a><b/>\n<c/></a>" };
      P.Add_chunk { doc = "big"; off = 0; last = false; bytes = "<a><b" };
      P.Add_chunk { doc = "big"; off = 5; last = true; bytes = "/></a>\n" };
      P.Add_chunk { doc = "tiny"; off = 0; last = true; bytes = "" };
      P.Adopt { doc = "lib"; file = P.Base_xml; last = false; bytes = "<a/>\n" };
      P.Adopt { doc = "lib"; file = P.Ckpt_sidecar 3; last = false; bytes = "" };
      P.Adopt { doc = "lib"; file = P.Active_wal; last = true; bytes = "" };
      P.Adopt_abort "lib";
      P.Drop_doc "lib";
      P.Rebalance { doc = "lib"; target = 2 };
    ]

let test_request_rejects () =
  List.iter
    (fun line ->
      match P.parse_request line with
      | Ok _ -> Alcotest.failf "parsed %S" line
      | Error _ -> ())
    [
      ""; "FROB"; "QUERY"; "COUNT"; "SLEEP x"; "SLEEP -1";
      "UPDATE lib INSERT 1 2"; "UPDATE lib DELETE 0";
      "UPDATE lib DELETE nope"; "UPDATE l i b INSERT 1 2 t";
      "CHECK two words";
      (* collection-tier rejects *)
      "QUERYD lib"; "COUNTD"; "COUNTD lib";
      "ADDDOC"; "ADDDOC lib"; "ADDDOC two words\n<a/>";
      "ADDCHUNK"; "ADDCHUNK lib\n<a/>"; "ADDCHUNK lib 0 2\n<a/>";
      "ADDCHUNK lib -1 0\n<a/>"; "ADDCHUNK lib x 1\n<a/>";
      "ADDCHUNK two words 0 1\n<a/>";
      "ADOPT lib base-xml 2\nx"; "ADOPT lib nosuchfile 0\nx"; "ADOPT lib";
      "ADOPTABORT"; "ADOPTABORT two words";
      "DROPDOC"; "DROPDOC two words";
      "REBALANCE lib"; "REBALANCE lib -1"; "REBALANCE lib x";
    ]

let test_frame_io () =
  let r, w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r and oc = Unix.out_channel_of_descr w in
  let payloads = [ "PING"; "OK line one\nline two\nline three"; "" ] in
  List.iter (P.write_frame oc) payloads;
  close_out oc;
  List.iter
    (fun expected ->
      match P.read_frame ic with
      | Some got -> Alcotest.(check string) "frame" expected got
      | None -> Alcotest.fail "premature EOF")
    payloads;
  Alcotest.(check bool) "clean EOF" true (P.read_frame ic = None);
  close_in ic

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      Alcotest.(check string)
        "response round-trips"
        (P.response_to_string resp)
        (P.response_to_string (P.parse_response (P.response_to_string resp))))
    [ P.Ok_ ""; P.Ok_ "v=1 total=2"; P.Err "boom"; P.Busy "queue full" ]

(* ------------------------------------------------------------------ *)
(* Basic sessions                                                      *)
(* ------------------------------------------------------------------ *)

let library = "<lib><book><title/><author/></book><book><title/></book></lib>"

let test_basic_session () =
  with_server [ ("lib", doc_of_string library) ] @@ fun cfg _t ->
  C.with_connection cfg.Service.socket_path @@ fun c ->
  (match C.request c P.Ping with
  | P.Ok_ "pong" -> ()
  | r -> Alcotest.failf "ping: %s" (P.response_to_string r));
  let docs = ok_body (C.request c P.Docs) in
  Alcotest.(check int) "one document" 1 (get_kv docs "docs");
  let body = ok_body (C.request c (P.Count "//title")) in
  Alcotest.(check int) "two titles" 2 (get_kv body "total");
  Alcotest.(check int) "count in lib" 2 (get_kv body "lib");
  let q = ok_body (C.request c (P.Query "//author")) in
  Alcotest.(check int) "one author" 1 (get_kv q "total");
  Alcotest.(check bool) "identifiers listed" true
    (String.length q > 0
    && String.length (String.concat "" (String.split_on_char ':' q)) < String.length q + 20
    && String.index_opt q ':' <> None);
  let chk = ok_body (C.request c (P.Check "lib")) in
  Alcotest.(check int) "checked against v1" 1 (get_kv chk "v");
  (match C.request c (P.Check "nope") with
  | P.Err _ -> ()
  | r -> Alcotest.failf "check nope: %s" (P.response_to_string r));
  let stats = ok_body (C.request c P.Stats) in
  Alcotest.(check bool) "stats has totals" true (C.kv_int stats "requests" <> None);
  Alcotest.(check int) "snapshot v1" 1 (get_kv stats "snapshot_version")

(* STATS carries the process's memory: the major heap now and at its
   peak, and the peak resident set where /proc says it. *)
let test_stats_memory () =
  with_server [ ("lib", doc_of_string library) ] @@ fun cfg _t ->
  C.with_connection cfg.Service.socket_path @@ fun c ->
  let stats = ok_body (C.request c P.Stats) in
  let heap = get_kv stats "heap_words" and top = get_kv stats "top_heap_words" in
  Alcotest.(check bool) "heap_words > 0" true (heap > 0);
  Alcotest.(check bool) "top_heap_words >= heap_words" true (top >= heap);
  let hwm = get_kv stats "vm_hwm_kb" in
  if Sys.file_exists "/proc/self/status" then
    Alcotest.(check bool) "vm_hwm_kb > 0" true (hwm > 0)
  else Alcotest.(check int) "vm_hwm_kb without /proc" 0 hwm

let test_update_and_query () =
  with_server [ ("lib", doc_of_string library) ] @@ fun cfg _t ->
  C.with_connection cfg.Service.socket_path @@ fun c ->
  let body =
    ok_body
      (C.request c
         (P.Update
            { doc = "lib";
              op = Wal.Insert { parent_rank = 0; pos = 0; tag = "title" } }))
  in
  Alcotest.(check int) "version bumped" 2 (get_kv body "v");
  Alcotest.(check int) "first journal record" 1 (get_kv body "seq");
  let count = ok_body (C.request c (P.Count "//title")) in
  Alcotest.(check int) "new title visible" 3 (get_kv count "total");
  Alcotest.(check int) "read from v2" 2 (get_kv count "v");
  (* delete it again: the new node is the first child of the root, rank 1 *)
  let body =
    ok_body
      (C.request c (P.Update { doc = "lib"; op = Wal.Delete { rank = 1 } }))
  in
  Alcotest.(check int) "version 3" 3 (get_kv body "v");
  let count = ok_body (C.request c (P.Count "//title")) in
  Alcotest.(check int) "back to two" 2 (get_kv count "total");
  (match
     C.request c
       (P.Update
          { doc = "lib"; op = Wal.Insert { parent_rank = 999; pos = 0; tag = "x" } })
   with
  | P.Err _ -> ()
  | r -> Alcotest.failf "bad rank: %s" (P.response_to_string r));
  (match
     C.request c
       (P.Update { doc = "nope"; op = Wal.Delete { rank = 1 } })
   with
  | P.Err _ -> ()
  | r -> Alcotest.failf "bad doc: %s" (P.response_to_string r))

(* ------------------------------------------------------------------ *)
(* Planner integration                                                 *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The read path over a snapshot hosting [library] without a planner —
   every query on the engine — at version 1, and at version 2 after the
   same insert the wire tests send. *)
let engine_only_snapshots ~max_area_size =
  let r2 = R2.number ~max_area_size (doc_of_string library) in
  let v1, _ =
    Rserver.Snapshot.host (Rserver.Snapshot.capture ~version:1 []) ~version:1
      [ ("lib", r2) ]
  in
  let v2, _ =
    Rserver.Snapshot.advance v1 ~version:2
      [ (0, [ Wal.Insert { parent_rank = 0; pos = 0; tag = "title" } ], 2) ]
  in
  (v1, v2)

let test_explain_verb () =
  with_server [ ("lib", doc_of_string library) ] @@ fun cfg _t ->
  C.with_connection cfg.Service.socket_path @@ fun c ->
  let body = ok_body (C.request c (P.Explain "//book[author]/title")) in
  Alcotest.(check bool) "carries the version" true (contains body "v=1");
  Alcotest.(check bool) "names the doc" true (contains body "doc lib");
  Alcotest.(check bool) "states a strategy" true (contains body "strategy:");
  Alcotest.(check bool) "has the operator table" true (contains body "operator");
  Alcotest.(check bool) "reports the result" true (contains body "result:");
  (match C.request c (P.Explain "///[[[") with
  | P.Err _ -> ()
  | r -> Alcotest.failf "bad xpath: %s" (P.response_to_string r));
  (* EXPLAIN answers, with a reason, over a document without a planner *)
  let v1, _ = engine_only_snapshots ~max_area_size:cfg.Service.max_area_size in
  let body = ok_body (Service.eval_read v1 (P.Explain "//book/title")) in
  Alcotest.(check bool) "says why" true (contains body "explain unavailable")

(* Acceptance: the served QUERY and COUNT replies, all planned, are
   byte-identical to the engine's over the same document, across
   strategies (chain, twig, pruned, fallback) and across an update. *)
let test_planner_replies_byte_identical () =
  let probes =
    [
      P.Query "//book/title"; P.Count "//book/title";
      P.Query "//book[author]/title"; P.Count "//book[author]/title";
      P.Query "//title/ancestor::book"; P.Count "//shelf/book";
      P.Query "//author | //title"; P.Count "//book[2]";
    ]
  in
  with_server [ ("lib", doc_of_string library) ] @@ fun cfg _t ->
  let wire =
    C.with_connection cfg.Service.socket_path @@ fun c ->
    let before = List.map (fun r -> P.response_to_string (C.request c r)) probes in
    ignore
      (ok_body
         (C.request c
            (P.Update
               { doc = "lib";
                 op = Wal.Insert { parent_rank = 0; pos = 0; tag = "title" } })));
    let after = List.map (fun r -> P.response_to_string (C.request c r)) probes in
    before @ after
  in
  let v1, v2 = engine_only_snapshots ~max_area_size:cfg.Service.max_area_size in
  let reference snap =
    List.map (fun r -> P.response_to_string (Service.eval_read snap r)) probes
  in
  List.iteri
    (fun i (planned, engine) ->
      Alcotest.(check string) (Printf.sprintf "probe %d" i) engine planned)
    (List.combine wire (reference v1 @ reference v2))

let test_invalid_requests_over_wire () =
  with_server [ ("lib", doc_of_string library) ] @@ fun cfg _t ->
  C.with_connection cfg.Service.socket_path @@ fun c ->
  (match C.request_raw c "NO SUCH VERB" with
  | P.Err _ -> ()
  | r -> Alcotest.failf "gibberish: %s" (P.response_to_string r));
  (match C.request c (P.Query "///[[[") with
  | P.Err _ -> ()
  | r -> Alcotest.failf "bad xpath: %s" (P.response_to_string r));
  (* the session survives both *)
  match C.request c P.Ping with
  | P.Ok_ "pong" -> ()
  | r -> Alcotest.failf "ping after errors: %s" (P.response_to_string r)

(* ------------------------------------------------------------------ *)
(* Snapshot isolation                                                  *)
(* ------------------------------------------------------------------ *)

(* The server starts with zero <m> elements at version 1 and every update
   inserts exactly one, so every consistent snapshot satisfies
   count(//m) = version - 1.  A torn read (a query observing a
   half-renumbered area) breaks either this equation or CHECK. *)
let test_snapshot_isolation () =
  with_server ~workers:4 ~max_queue:64 [ ("lib", doc_of_string library) ]
  @@ fun cfg _t ->
  let updates = 25 and readers = 4 and reads = 60 in
  let violations = ref [] and vmu = Mutex.create () in
  let record_violation msg =
    Mutex.lock vmu;
    violations := msg :: !violations;
    Mutex.unlock vmu
  in
  let writer =
    Thread.create
      (fun () ->
        C.with_connection cfg.Service.socket_path @@ fun c ->
        for i = 1 to updates do
          match
            C.request c
              (P.Update
                 { doc = "lib";
                   op = Wal.Insert { parent_rank = 0; pos = 0; tag = "m" } })
          with
          | P.Ok_ body ->
            if get_kv body "v" <> i + 1 then
              record_violation
                (Printf.sprintf "update %d published version %d" i
                   (get_kv body "v"))
          | r ->
            record_violation
              (Printf.sprintf "update %d failed: %s" i (P.response_to_string r))
        done)
      ()
  in
  let reader _i =
    Thread.create
      (fun () ->
        C.with_connection cfg.Service.socket_path @@ fun c ->
        for _ = 1 to reads do
          (match C.request c (P.Count "//m") with
          | P.Ok_ body ->
            let v = get_kv body "v" and n = get_kv body "total" in
            if n <> v - 1 then
              record_violation
                (Printf.sprintf "torn read: version %d shows %d <m>" v n)
          | P.Busy _ -> ()
          | P.Err m -> record_violation ("reader error: " ^ m));
          match C.request c (P.Check "lib") with
          | P.Ok_ _ | P.Busy _ -> ()
          | P.Err m -> record_violation ("inconsistent snapshot: " ^ m)
        done)
      ()
  in
  let readers = List.init readers reader in
  Thread.join writer;
  List.iter Thread.join readers;
  (match !violations with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%d violation(s), e.g. %s" (List.length !violations) v);
  (* final state: all updates landed *)
  C.with_connection cfg.Service.socket_path @@ fun c ->
  let body = ok_body (C.request c (P.Count "//m")) in
  Alcotest.(check int) "all updates visible" updates (get_kv body "total");
  Alcotest.(check int) "final version" (updates + 1) (get_kv body "v")

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let test_busy_when_queue_full () =
  with_server ~workers:1 ~max_queue:1 [ ("lib", doc_of_string library) ]
  @@ fun cfg _t ->
  (* Occupy the single worker, then the single queue slot; the next
     data-path request must be rejected immediately. *)
  let hold ms = Thread.create (fun () ->
      C.with_connection cfg.Service.socket_path @@ fun c ->
      ignore (C.request c (P.Sleep ms)))
      ()
  in
  let t1 = hold 500 in
  Thread.delay 0.15;
  let t2 = hold 500 in
  Thread.delay 0.15;
  C.with_connection cfg.Service.socket_path @@ fun c ->
  (match C.request c (P.Count "//title") with
  | P.Busy _ -> ()
  | r -> Alcotest.failf "expected BUSY, got %s" (P.response_to_string r));
  (* control verbs stay responsive under overload *)
  (match C.request c P.Ping with
  | P.Ok_ "pong" -> ()
  | r -> Alcotest.failf "ping under load: %s" (P.response_to_string r));
  let stats = ok_body (C.request c P.Stats) in
  Alcotest.(check bool) "busy counted" true (get_kv stats "busy" >= 1);
  Thread.join t1;
  Thread.join t2

let test_deadline_expires_in_queue () =
  with_server ~workers:1 ~max_queue:8 ~deadline_ms:80
    [ ("lib", doc_of_string library) ]
  @@ fun cfg _t ->
  let t1 =
    Thread.create
      (fun () ->
        C.with_connection cfg.Service.socket_path @@ fun c ->
        ignore (C.request c (P.Sleep 400)))
      ()
  in
  Thread.delay 0.1;
  C.with_connection cfg.Service.socket_path @@ fun c ->
  (* queued behind a 400ms job with an 80ms deadline: BUSY, not late *)
  (match C.request c (P.Count "//title") with
  | P.Busy why ->
    Alcotest.(check bool) "deadline reason" true
      (String.length why >= 8 && String.sub why 0 8 = "deadline")
  | r -> Alcotest.failf "expected deadline BUSY, got %s" (P.response_to_string r));
  Thread.join t1

(* ------------------------------------------------------------------ *)
(* Shutdown and durability                                             *)
(* ------------------------------------------------------------------ *)

let test_shutdown_leaves_recoverable_wal () =
  let cfg_ref = ref None in
  let files = ref None in
  (with_server [ ("lib", doc_of_string library) ] @@ fun cfg t ->
   cfg_ref := Some cfg;
   files := Service.doc_files t "lib";
   C.with_connection cfg.Service.socket_path @@ fun c ->
   for i = 1 to 6 do
     ignore
       (ok_body
          (C.request c
             (P.Update
                { doc = "lib";
                  op = Wal.Insert { parent_rank = 0; pos = 0; tag = "m" } })));
     ignore i
   done);
  (* server fully stopped here *)
  let xml, sidecar, wal = Option.get !files in
  let status = Wal.fsck ~xml ~sidecar ~wal () in
  Alcotest.(check bool)
    (Format.asprintf "fsck rates 0 or 1 (%a)" Wal.pp_status status)
    true
    (Wal.exit_code status <= 1);
  (* and recovery reproduces what clients were told *)
  let recovery = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check int) "all six updates journaled" 6
    (List.length recovery.Wal.replayed);
  let ms =
    List.filter (fun n -> Dom.tag n = "m") (R2.all_nodes recovery.Wal.r2)
  in
  Alcotest.(check int) "recovered the six <m>" 6 (List.length ms)

(* ------------------------------------------------------------------ *)
(* Group commit and incremental publication                            *)
(* ------------------------------------------------------------------ *)

module Snapshot = Rserver.Snapshot

let encoded_ids r2 =
  List.map
    (fun n -> Bytes.to_string (Ruid.Codec.encode_ruid2 (R2.id_of_node r2 n)))
    (R2.all_nodes r2)

(* Incremental publication (Snapshot.advance) must yield identifiers
   bit-identical to both the master that applied the same operations and
   a full sidecar round-trip of it (Snapshot.capture) — across random documents,
   random scripts, and random batch partitions.  max_area_size 4 forces
   area overflows so the clone-and-replay path exercises splits, not just
   in-place renumbering. *)
let test_incremental_publication_equivalence () =
  for seed = 1 to 100 do
    let root =
      Rworkload.Shape.generate ~seed ~target:60
        (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 3 })
    in
    let master = R2.number ~max_area_size:4 root in
    let ops =
      Rworkload.Updates.script ~seed:(seed + 1000) ~ops:12 (R2.root master)
      |> List.map Rstorage.Crashsim.wal_op_of_update
    in
    let rng = Rworkload.Rng.create ((seed * 7) + 3) in
    let rec partition = function
      | [] -> []
      | ops ->
        let n = min (List.length ops) (1 + Rworkload.Rng.int rng 5) in
        let batch = List.filteri (fun i _ -> i < n) ops in
        let rest = List.filteri (fun i _ -> i >= n) ops in
        batch :: partition rest
    in
    let snap = ref (Snapshot.capture ~version:1 [ ("d", master) ]) in
    let version = ref 1 in
    List.iter
      (fun batch ->
        List.iter (fun op -> ignore (Wal.apply master op)) batch;
        incr version;
        let next, rebuilt =
          Snapshot.advance !snap ~version:!version [ (0, batch, !version) ]
        in
        if rebuilt < 1 then
          Alcotest.failf "seed %d: batch rebuilt no areas" seed;
        snap := next)
      (partition ops);
    let _, doc = Option.get (Snapshot.find !snap "d") in
    let inc = doc.Snapshot.r2 in
    R2.check inc;
    if encoded_ids inc <> encoded_ids master then
      Alcotest.failf "seed %d: incremental snapshot diverged from master" seed;
    let full = Snapshot.capture ~version:(!version + 1) [ ("d", master) ] in
    let _, fdoc = Option.get (Snapshot.find full "d") in
    if encoded_ids fdoc.Snapshot.r2 <> encoded_ids inc then
      Alcotest.failf "seed %d: incremental differs from full round-trip" seed
  done

(* The failure mode behind per-document cursors: concurrent commit groups
   publish versions out of order.  Document A's group publishes version 10
   and stamps the snapshot there, while document B's group still has a
   queued update carrying version 6.  Measured against the global stamp,
   B's update would look stale; against B's own cursor it lands.  This
   pins the cursor plumbing: cursors are per document, shared documents
   keep theirs, and folding is independent of the global stamp. *)
let test_per_document_version_cursor () =
  let make seed =
    R2.number ~max_area_size:8
      (Rworkload.Shape.generate ~seed ~target:30
         (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 3 }))
  in
  let a = make 7 and b = make 8 in
  let snap = Snapshot.capture ~version:1 [ ("a", a); ("b", b) ] in
  Alcotest.(check (list int))
    "cursors start at the capture version" [ 1; 1 ]
    (Array.to_list
       (Array.map (fun d -> d.Snapshot.doc_version) snap.Snapshot.docs));
  (* document A's group publishes version 10 first *)
  let op_a = Wal.Insert { parent_rank = 0; pos = 0; tag = "x" } in
  ignore (Wal.apply a op_a);
  let snap, _ = Snapshot.advance snap ~version:10 [ (0, [ op_a ], 10) ] in
  Alcotest.(check int) "untouched document keeps its own cursor" 1
    snap.Snapshot.docs.(1).Snapshot.doc_version;
  (* document B folds an update whose version (6) trails the global stamp
     (10): against B's own cursor it is fresh (6 > 1) and must land *)
  let op = Wal.Insert { parent_rank = 0; pos = 0; tag = "y" } in
  ignore (Wal.apply b op);
  let snap, _ = Snapshot.advance snap ~version:11 [ (1, [ op ], 6) ] in
  Alcotest.(check int) "B's cursor advances to its own version" 6
    snap.Snapshot.docs.(1).Snapshot.doc_version;
  Alcotest.(check int) "A's cursor is untouched" 10
    snap.Snapshot.docs.(0).Snapshot.doc_version;
  let _, db = Option.get (Snapshot.find snap "b") in
  if encoded_ids db.Snapshot.r2 <> encoded_ids b then
    Alcotest.fail "B's trailing-version update was not folded"

let test_group_commit_service () =
  with_server ~workers:4 ~max_queue:64 [ ("lib", doc_of_string library) ]
  @@ fun cfg _t ->
  let mu = Mutex.create () in
  let seen = ref [] in
  let per_thread = 10 in
  let body () =
    C.with_connection cfg.Service.socket_path @@ fun c ->
    for _ = 1 to per_thread do
      let body =
        ok_body
          (C.request c
             (P.Update
                { doc = "lib";
                  op = Wal.Insert { parent_rank = 0; pos = 0; tag = "m" } }))
      in
      let v = get_kv body "v" in
      (* every ack names the commit batch that made it durable *)
      if get_kv body "batch" < 1 then
        Alcotest.failf "ack %S lacks a positive batch=" body;
      Mutex.lock mu;
      seen := v :: !seen;
      Mutex.unlock mu
    done
  in
  let threads = Array.init 4 (fun _ -> Thread.create body ()) in
  Array.iter Thread.join threads;
  (* group commit must not lose, duplicate, or reorder version
     assignment: 40 updates over version-1 seed = exactly 2..41 *)
  Alcotest.(check (list int))
    "distinct consecutive versions"
    (List.init 40 (fun i -> i + 2))
    (List.sort compare !seen);
  C.with_connection cfg.Service.socket_path @@ fun c ->
  let count = ok_body (C.request c (P.Count "//m")) in
  Alcotest.(check int) "all forty inserts visible" 40 (get_kv count "total");
  let stats = ok_body (C.request c P.Stats) in
  Alcotest.(check int) "all records journaled" 40 (get_kv stats "wal_records");
  Alcotest.(check bool) "batches counted" true (get_kv stats "wal_batches" >= 1);
  Alcotest.(check bool) "publications counted" true
    (get_kv stats "publish_incremental" + get_kv stats "publish_full" >= 1)

let test_commit_pipelines_concurrent_docs () =
  (* W writers over D documents hashed across 4 commit pipelines: the
     global version sequence stays gapless, every document's journal
     sequence stays consecutive and version-ordered, acks stay batched,
     and after a clean stop every document's journal family fscks clean
     and recovers exactly what clients were told.  This is the
     whole-service contract the per-group split must not bend. *)
  let n_docs = 6 and writers = 12 and per_writer = 8 in
  let docs =
    List.init n_docs (fun i -> (Printf.sprintf "doc%d" i, doc_of_string library))
  in
  let files = ref [] in
  let mu = Mutex.create () in
  let seen : (string, int * int) Hashtbl.t = Hashtbl.create 64 in
  (with_server ~workers:(writers + 1) ~max_queue:256 ~commit_groups:4 docs
   @@ fun cfg t ->
   files :=
     List.map (fun (name, _) -> (name, Option.get (Service.doc_files t name)))
       docs;
   let body k () =
     let doc = Printf.sprintf "doc%d" (k mod n_docs) in
     C.with_connection cfg.Service.socket_path @@ fun c ->
     for _ = 1 to per_writer do
       let body =
         ok_body
           (C.request c
              (P.Update
                 { doc;
                   op = Wal.Insert { parent_rank = 0; pos = 0; tag = "m" } }))
       in
       if get_kv body "batch" < 1 then
         Alcotest.failf "ack %S lacks a positive batch=" body;
       Mutex.lock mu;
       Hashtbl.add seen doc (get_kv body "seq", get_kv body "v");
       Mutex.unlock mu
     done
   in
   let threads = Array.init writers (fun k -> Thread.create (body k) ()) in
   Array.iter Thread.join threads;
   let total = writers * per_writer in
   (* Global versions: distinct and gapless across all pipelines — the
      shared counter leaves no holes even though four leaders interleave. *)
   let versions =
     List.sort compare (Hashtbl.fold (fun _ (_, v) acc -> v :: acc) seen [])
   in
   Alcotest.(check (list int))
     "globally distinct consecutive versions"
     (List.init total (fun i -> i + 2))
     versions;
   (* Per document: journal sequences are exactly 1..N, and versions
      increase with sequence (per-document ordering is untouched). *)
   let per_doc = total / n_docs in
   List.iter
     (fun (name, _) ->
       let stream =
         List.sort compare (Hashtbl.find_all seen name)
       in
       Alcotest.(check (list int))
         (name ^ ": consecutive journal sequence")
         (List.init per_doc (fun i -> i + 1))
         (List.map fst stream);
       ignore
         (List.fold_left
            (fun prev (_, v) ->
              if v <= prev then
                Alcotest.failf "%s: version %d not above %d" name v prev;
              v)
            0 stream))
     !files;
   C.with_connection cfg.Service.socket_path @@ fun c ->
   (* Reads see everything; STATS aggregates across groups and details
      each pipeline. *)
   let count = ok_body (C.request c (P.Count "//m")) in
   Alcotest.(check int) "all inserts visible" total (get_kv count "total");
   let stats = ok_body (C.request c P.Stats) in
   Alcotest.(check int) "all records journaled (aggregated)" total
     (get_kv stats "wal_records");
   Alcotest.(check int) "four pipelines reported" 4
     (get_kv stats "commit_groups");
   let group_lines =
     List.filter
       (fun l -> String.length l > 6 && String.sub l 0 6 = "group=")
       (String.split_on_char '\n' stats)
   in
   Alcotest.(check int) "one detail line per group" 4
     (List.length group_lines);
   Alcotest.(check bool) "handoffs counted" true
     (get_kv stats "leader_handoffs" >= 1));
  (* Server stopped: every journal family recovers what clients saw. *)
  List.iter
    (fun (name, (xml, sidecar, wal)) ->
      let status = Wal.fsck ~xml ~sidecar ~wal () in
      Alcotest.(check int)
        (Format.asprintf "%s: fsck clean after stop (%a)" name Wal.pp_status
           status)
        0 (Wal.exit_code status);
      let recovery = Wal.replay ~xml ~sidecar ~wal () in
      let ms =
        List.filter (fun n -> Dom.tag n = "m") (R2.all_nodes recovery.Wal.r2)
      in
      Alcotest.(check int)
        (name ^ ": recovered every acked insert")
        (writers * per_writer / n_docs)
        (List.length ms))
    !files

let test_segment_rotation_service () =
  let files = ref None in
  (with_server ~wal_segment_bytes:256 [ ("lib", doc_of_string library) ]
   @@ fun cfg t ->
   files := Service.doc_files t "lib";
   C.with_connection cfg.Service.socket_path @@ fun c ->
   for _ = 1 to 30 do
     ignore
       (ok_body
          (C.request c
             (P.Update
                { doc = "lib";
                  op = Wal.Insert { parent_rank = 0; pos = 0; tag = "m" } })))
   done;
   let stats = ok_body (C.request c P.Stats) in
   Alcotest.(check bool) "rotated at least once" true
     (get_kv stats "wal_rotations" >= 1));
  (* server fully stopped: the checkpointed journal chain must recover
     everything clients were told, same as the unrotated case *)
  let xml, sidecar, wal = Option.get !files in
  let status = Wal.fsck ~xml ~sidecar ~wal () in
  Alcotest.(check bool)
    (Format.asprintf "fsck passes after rotation (%a)" Wal.pp_status status)
    true
    (Wal.exit_code status <= 1);
  let recovery = Wal.replay ~xml ~sidecar ~wal () in
  let ms =
    List.filter (fun n -> Dom.tag n = "m") (R2.all_nodes recovery.Wal.r2)
  in
  Alcotest.(check int) "recovered all thirty <m>" 30 (List.length ms)

let members = Util.family_members

let insert_m =
  P.Update
    { doc = "lib"; op = Wal.Insert { parent_rank = 0; pos = 0; tag = "m" } }

(* A rotation that cannot publish its checkpoint (a directory squats on
   the pair's path) leaves the old segment in force.  It must cost no
   reply: every UPDATE answers OK, replication reads answer, the attempt
   leaves no temp file, and the rotation goes through once the path is
   free.  A test that caught the service stuck fails without stopping
   it. *)
let test_failed_rotation_retries () =
  let files = ref None in
  (with_server ~wal_segment_bytes:64 [ ("lib", doc_of_string library) ]
   @@ fun cfg t ->
   files := Service.doc_files t "lib";
   let _, _, wal = Option.get !files in
   let squat = fst (Wal.checkpoint_files wal 1) in
   Unix.mkdir squat 0o755;
   C.with_connection cfg.Service.socket_path @@ fun c ->
   let request what req =
     match C.request_timeout c ~timeout_ms:10_000 req with
     | r -> r
     | exception C.Timeout -> raise (Wedged (what ^ " got no reply in 10 s"))
   in
   for i = 1 to 8 do
     match request "UPDATE" insert_m with
     | P.Ok_ _ -> ()
     | r -> Alcotest.failf "UPDATE %d: %s" i (P.response_to_string r)
   done;
   let stats = ok_body (request "STATS" P.Stats) in
   Alcotest.(check int) "no rotation committed" 0
     (get_kv stats "wal_rotations");
   Alcotest.(check bool) "failed rotations counted" true
     (get_kv stats "wal_rotation_failures" >= 1);
   (match
      request "REPL FILE"
        (P.Repl_file
           { doc = "lib"; file = P.Active_wal; offset = 0; limit = 100 })
    with
   | P.Ok_ _ -> ()
   | r -> Alcotest.failf "REPL FILE: %s" (P.response_to_string r));
   Alcotest.(check bool) "no temp file left behind" false
     (Sys.file_exists (squat ^ ".tmp"));
   Unix.rmdir squat;
   ignore (ok_body (request "UPDATE" insert_m));
   (* the rotation runs after the batch's acks *)
   let rotations () =
     get_kv (ok_body (request "STATS" P.Stats)) "wal_rotations"
   in
   let deadline = Unix.gettimeofday () +. 10. in
   while rotations () = 0 && Unix.gettimeofday () < deadline do
     Thread.delay 0.01
   done;
   Alcotest.(check bool) "rotation succeeds once the path is free" true
     (rotations () >= 1);
   Alcotest.(check bool) "the family is the bound of generation 1" true
     (members wal = Util.family_bound 1);
   Alcotest.(check int) "every acknowledged insert visible" 9
     (get_kv
        (ok_body
           (request "COUNTD" (P.Count_doc { doc = "lib"; xpath = "//m" })))
        "total"));
  let xml, sidecar, wal = Option.get !files in
  Alcotest.(check int) "fsck clean" 0
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()));
  let recovery = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check int) "recovered all nine <m>" 9
    (List.length
       (List.filter (fun n -> Dom.tag n = "m") (R2.all_nodes recovery.Wal.r2)))

(* A second start over the same data directory writes a fresh base pair
   and a generation-0 journal: the first run's checkpoint pairs and
   archives go, so neither disk use nor recovery ever sees them. *)
let test_restart_drops_stale_generations () =
  let data_dir = temp_dir () in
  let wal = Filename.concat data_dir "lib.wal" in
  let run ~wal_segment_bytes ~writes =
    with_server ~data_dir ~wal_segment_bytes
      [ ("lib", doc_of_string library) ]
    @@ fun cfg _ ->
    C.with_connection cfg.Service.socket_path @@ fun c ->
    for _ = 1 to writes do
      ignore (ok_body (C.request c insert_m))
    done
  in
  run ~wal_segment_bytes:64 ~writes:12;
  Alcotest.(check bool) "the first run rotated" true
    (List.exists (function Wal.Segment _ -> true | _ -> false) (members wal));
  run ~wal_segment_bytes:0 ~writes:2;
  Alcotest.(check bool) "only the active segment remains" true
    (members wal = [ Wal.Active ]);
  let xml = Filename.concat data_dir "lib.xml"
  and sidecar = Filename.concat data_dir "lib.ruid" in
  Alcotest.(check int) "fsck clean" 0
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()));
  let recovery = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check int) "the second run's two inserts" 2
    (List.length
       (List.filter (fun n -> Dom.tag n = "m") (R2.all_nodes recovery.Wal.r2)))

(* ------------------------------------------------------------------ *)
(* Lifecycle, alike on every role                                      *)
(* ------------------------------------------------------------------ *)

(* A running node of one of the three serving roles, for the lifecycle
   behaviour they share through the listener: its socket, its stop and
   wait, and a request whose reply takes about 60 ms to produce. *)
type node = {
  role : string;
  socket : string;
  stop : unit -> unit;
  wait : unit -> unit;
  slow : P.request;
}

let roles = [ `Service; `Replica; `Router ]

let with_node role f =
  let lib = [ ("lib", doc_of_string library) ] in
  match role with
  | `Service ->
    with_server lib @@ fun cfg t ->
    f { role = "service"; socket = cfg.Service.socket_path;
        stop = (fun () -> Service.stop t); wait = (fun () -> Service.wait t);
        slow = P.Sleep 60 }
  | `Replica ->
    with_server lib @@ fun cfg _t ->
    let rcfg =
      { (Service.default_config ~socket_path:(sock_path ())
           ~data_dir:(temp_dir ()) ())
        with
        workers = 2;
        upstream = Some cfg.Service.socket_path }
    in
    let r = Service.start rcfg [] in
    Fun.protect ~finally:(fun () -> Service.stop r) @@ fun () ->
    f { role = "replica"; socket = rcfg.Service.socket_path;
        stop = (fun () -> Service.stop r); wait = (fun () -> Service.wait r);
        slow = P.Sleep 60 }
  | `Router ->
    let module Rt = Rserver.Router in
    let module L = Rserver.Listener in
    (* a toy shard that takes 60 ms over every reply *)
    let shard_sock = sock_path () in
    let shard = L.create ~metrics:(Rserver.Metrics.create ()) shard_sock in
    L.serve shard ~teardown:ignore (fun _ ->
        L.Inline
          (fun () ->
            Thread.delay 0.06;
            P.Ok_ "v=1 total=0"));
    let rcfg =
      Rt.default_config ~socket_path:(sock_path ())
        ~shard_sockets:[| shard_sock |] ()
    in
    let rt = Rt.start rcfg in
    Fun.protect
      ~finally:(fun () ->
        Rt.stop rt;
        L.stop shard)
    @@ fun () ->
    f { role = "router"; socket = rcfg.Rt.socket_path;
        stop = (fun () -> Rt.stop rt); wait = (fun () -> Rt.wait rt);
        slow = P.Count "//title" }

let test_shutdown_verb () =
  List.iter
    (fun role ->
      with_node role @@ fun n ->
      (C.with_connection n.socket @@ fun c ->
       match C.request c P.Shutdown with
       | P.Ok_ _ -> ()
       | r ->
         Alcotest.failf "%s: shutdown: %s" n.role (P.response_to_string r));
      n.wait ();
      Alcotest.(check bool) (n.role ^ ": socket removed") false
        (Sys.file_exists n.socket);
      (* idempotent *)
      n.stop ())
    roles

(* The built [ruidtool] serving roles stop gracefully on SIGTERM and
   SIGINT: exit 0, socket removed.  A primary, a replica following it and
   a router over it run as child processes. *)
let ruidtool =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/ruidtool.exe"

let test_stop_signals () =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let children = ref [] in
  let spawn socket args =
    let pid =
      Unix.create_process ruidtool
        (Array.of_list ("ruidtool" :: args))
        devnull devnull devnull
    in
    children := pid :: !children;
    let deadline = Unix.gettimeofday () +. 30. in
    while
      (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline
    do
      Thread.delay 0.02
    done;
    if not (Sys.file_exists socket) then
      Alcotest.failf "%s never bound %s" (List.hd args) socket;
    pid
  in
  (* wait up to 10 s for [pid] to exit *)
  let reap pid =
    let deadline = Unix.gettimeofday () +. 10. in
    let rec go () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Thread.delay 0.02;
        go ()
      | 0, _ -> None
      | _, status ->
        children := List.filter (fun p -> p <> pid) !children;
        Some status
    in
    go ()
  in
  let stops what pid signal socket =
    Unix.kill pid signal;
    (match reap pid with
    | Some (Unix.WEXITED 0) -> ()
    | Some (Unix.WEXITED n) -> Alcotest.failf "%s exited %d" what n
    | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Alcotest.failf "%s died on signal %d" what n
    | None -> Alcotest.failf "%s still running 10 s after the signal" what);
    Alcotest.(check bool) (what ^ ": socket removed") false
      (Sys.file_exists socket)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        !children;
      Unix.close devnull)
  @@ fun () ->
  let primary = sock_path () and replica = sock_path ()
  and router = sock_path () in
  let p =
    spawn primary
      [ "serve"; "--socket"; primary; "--data-dir"; temp_dir ();
        "--gen-kind"; "dblp"; "--gen-size"; "300" ]
  in
  let r =
    spawn replica
      [ "replica"; "--socket"; replica; "--primary"; primary; "--data-dir";
        temp_dir (); "--poll-ms"; "50" ]
  in
  let rt = spawn router [ "router"; "--socket"; router; "--shard"; primary ] in
  stops "router" rt Sys.sigterm router;
  stops "replica" r Sys.sigint replica;
  stops "serve" p Sys.sigterm primary

(* [ruidtool client] against a socket nobody serves: a missing path
   (ENOENT) and a bound socket that does not listen (ECONNREFUSED), one
   request, a stdin session and a request with retries.  Each must say
   why on stderr and exit 6 — not crash with an uncaught exception. *)
let test_client_cannot_connect () =
  let run args ~stdin_text =
    let err = Filename.temp_file "ruid-client" ".err" in
    let inp = Filename.temp_file "ruid-client" ".in" in
    Out_channel.with_open_bin inp (fun oc -> output_string oc stdin_text);
    let fd_in = Unix.openfile inp [ Unix.O_RDONLY ] 0 in
    let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process ruidtool
        (Array.of_list ("ruidtool" :: "client" :: args))
        fd_in devnull fd_err
    in
    let _, status = Unix.waitpid [] pid in
    List.iter Unix.close [ fd_in; fd_err; devnull ];
    let text = In_channel.with_open_bin err In_channel.input_all in
    Sys.remove err;
    Sys.remove inp;
    (status, text)
  in
  let missing = sock_path () in
  let refusing = sock_path () in
  let bound = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind bound (Unix.ADDR_UNIX refusing);
  Fun.protect ~finally:(fun () ->
      Unix.close bound;
      try Sys.remove refusing with Sys_error _ -> ())
  @@ fun () ->
  List.iter
    (fun (socket, reason) ->
      List.iter
        (fun (form, args, stdin_text) ->
          let status, err = run ([ "--socket"; socket ] @ args) ~stdin_text in
          let what = Printf.sprintf "%s socket, %s" reason form in
          (match status with
          | Unix.WEXITED 6 -> ()
          | Unix.WEXITED n -> Alcotest.failf "%s: exit %d (%s)" what n err
          | _ -> Alcotest.failf "%s: killed (%s)" what err);
          Alcotest.(check string)
            (what ^ ": stderr names the socket and the reason")
            (Printf.sprintf "cannot connect to %s: %s\n" socket reason)
            err)
        [ ("one request", [ "DOCS" ], "");
          ("stdin session", [], "PING\nDOCS\n");
          ("with retries", [ "--retries"; "3"; "--retry-budget-ms"; "100"; "DOCS" ], "") ])
    [ (missing, Unix.error_message Unix.ENOENT);
      (refusing, Unix.error_message Unix.ECONNREFUSED) ]

let test_config_validation () =
  let base =
    Service.default_config ~socket_path:(sock_path ()) ~data_dir:(temp_dir ()) ()
  in
  let bad cfg = match Service.validate_config cfg with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "config accepted"
  in
  bad { base with Service.workers = 0 };
  bad { base with Service.max_queue = -1 };
  bad { base with Service.deadline_ms = -1 };
  bad { base with Service.max_area_size = 1 };
  bad { base with Service.domains = -1 };
  bad { base with Service.cache_mb = -1 };
  bad { base with Service.commit_groups = -1 };
  bad { base with Service.epoch = 0 };
  (* commit_groups = 0 means "one pipeline per read domain", min 1 *)
  Alcotest.(check int) "auto commit groups" 1
    (Service.resolved_commit_groups { base with Service.commit_groups = 0 });
  Alcotest.(check int) "auto groups follow domains" 4
    (Service.resolved_commit_groups
       { base with Service.commit_groups = 0; domains = 4 });
  Alcotest.(check int) "explicit commit groups" 3
    (Service.resolved_commit_groups
       { base with Service.commit_groups = 3; domains = 8 });
  (* max_queue = 0 means "4 x the larger pool" *)
  Alcotest.(check int) "auto queue bound" 16
    (Service.resolved_max_queue ~max_queue:0 ~workers:4 ~domains:0);
  Alcotest.(check int) "auto bound follows domains" 32
    (Service.resolved_max_queue ~max_queue:0 ~workers:4 ~domains:8);
  Alcotest.(check int) "explicit queue bound" 5
    (Service.resolved_max_queue ~max_queue:5 ~workers:4 ~domains:8);
  bad { base with Service.socket_path = "" };
  bad { base with Service.socket_path = String.make 200 'x' };
  (match Service.validate_config base with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default config rejected: %s" e);
  (* bad document names are rejected at start *)
  Alcotest.check_raises "dotfile name"
    (Invalid_argument "Service.start: bad document name \"../evil\"")
    (fun () ->
      ignore (Service.start base [ ("../evil", doc_of_string library) ]));
  (* its base pair would pass for document "lib"'s checkpoint pair *)
  Alcotest.check_raises "a journal family's name"
    (Invalid_argument "Service.start: bad document name \"lib.wal.ckpt1\"")
    (fun () ->
      ignore
        (Service.start base
           [ ("lib", doc_of_string library);
             ("lib.wal.ckpt1", doc_of_string library) ]))

(* ------------------------------------------------------------------ *)
(* Thread pool and thread-safe counters                                *)
(* ------------------------------------------------------------------ *)

let test_scheduler_bounds () =
  let sched =
    Rserver.Pool.create ~kind:`Threads ~workers:1 ~max_queue:2 ()
  in
  let release = Mutex.create () and released = Condition.create () in
  let go = ref false in
  let blocker () =
    Mutex.lock release;
    while not !go do
      Condition.wait released release
    done;
    Mutex.unlock release
  in
  Alcotest.(check bool) "worker job admitted" true
    (Rserver.Pool.submit sched blocker);
  Thread.delay 0.05;
  (* worker busy *)
  Alcotest.(check bool) "slot 1" true (Rserver.Pool.submit sched blocker);
  Alcotest.(check bool) "slot 2" true (Rserver.Pool.submit sched blocker);
  Alcotest.(check bool) "queue full" false
    (Rserver.Pool.submit sched (fun () -> ()));
  Alcotest.(check int) "depth" 2 (Rserver.Pool.queue_depth sched);
  Mutex.lock release;
  go := true;
  Condition.broadcast released;
  Mutex.unlock release;
  Rserver.Pool.shutdown sched;
  Alcotest.(check int) "drained" 0 (Rserver.Pool.queue_depth sched);
  Alcotest.(check bool) "rejected after shutdown" false
    (Rserver.Pool.submit sched (fun () -> ()))

let test_io_stats_concurrent () =
  let stats = Rstorage.Io_stats.create () in
  let per_thread = 5000 in
  let threads =
    List.init 8 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to per_thread do
              Rstorage.Io_stats.record_read stats;
              Rstorage.Io_stats.record_hit stats;
              Rstorage.Io_stats.record_write stats
            done)
          ())
  in
  List.iter Thread.join threads;
  let s = Rstorage.Io_stats.snapshot stats in
  Alcotest.(check int) "reads" (8 * per_thread) s.Rstorage.Io_stats.page_reads;
  Alcotest.(check int) "writes" (8 * per_thread) s.Rstorage.Io_stats.page_writes;
  Alcotest.(check int) "hits" (8 * per_thread) s.Rstorage.Io_stats.hits;
  let before = Rstorage.Io_stats.snapshot stats in
  Rstorage.Io_stats.record_read stats;
  let d =
    Rstorage.Io_stats.diff ~after:(Rstorage.Io_stats.snapshot stats) ~before
  in
  Alcotest.(check int) "diff isolates the delta" 1 d.Rstorage.Io_stats.page_reads;
  Rstorage.Io_stats.reset stats;
  Alcotest.(check int) "reset" 0 (Rstorage.Io_stats.page_reads stats)

let test_buffer_pool_concurrent () =
  let stats = Rstorage.Io_stats.create () in
  let pool = Rstorage.Buffer_pool.create ~capacity:16 ~stats in
  let per_thread = 2000 in
  let threads =
    List.init 6 (fun i ->
        Thread.create
          (fun () ->
            for k = 1 to per_thread do
              Rstorage.Buffer_pool.touch pool ((i * 7 + k) mod 64)
            done)
          ())
  in
  List.iter Thread.join threads;
  let s = Rstorage.Io_stats.snapshot stats in
  Alcotest.(check int) "every touch is a hit or a read" (6 * per_thread)
    Rstorage.Io_stats.(s.page_reads + s.hits)

(* A peer that hangs up mid-reply must cost exactly one session (and one
   error counter tick), never the process: the node writes the reply
   into a closed socket, takes EPIPE/ECONNRESET, and moves on. *)
let test_peer_drop_mid_reply () =
  List.iter
    (fun role ->
      with_node role @@ fun n ->
      let session_errors () =
        C.with_connection n.socket @@ fun c ->
        get_kv (ok_body (C.request c P.Stats)) "session_errors"
      in
      let before = session_errors () in
      (* start a slow request, then vanish before the reply lands *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX n.socket);
      let oc = Unix.out_channel_of_descr fd in
      P.write_frame oc (P.request_to_string n.slow);
      Unix.close fd;
      (* the reply write happens ~60ms from now; poll for the counter *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec wait () =
        if session_errors () > before then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "%s: peer drop was never counted as a session error"
            n.role
        else begin
          Thread.delay 0.02;
          wait ()
        end
      in
      wait ();
      (* and the node is entirely unharmed *)
      C.with_connection n.socket @@ fun c ->
      Alcotest.(check string) (n.role ^ " still serves") "pong"
        (ok_body (C.request c P.Ping)))
    roles

(* ------------------------------------------------------------------ *)
(* Streaming ingest: ADDCHUNK spooling and the depth budget             *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let test_add_chunk () =
  with_server [] @@ fun cfg _t ->
  C.with_connection cfg.Service.socket_path @@ fun c ->
  let xml =
    "<lib>"
    ^ String.concat ""
        (List.init 30 (fun i -> Printf.sprintf "<book n='%d'><t/></book>" i))
    ^ "</lib>"
  in
  (* the same bytes one-shot and chunked must persist identical artifacts *)
  let one = ok_body (C.request c (P.Add_doc { doc = "one"; xml })) in
  let len = String.length xml in
  let rec ship off =
    let n = min 17 (len - off) in
    let last = off + n >= len in
    let body =
      ok_body
        (C.request c
           (P.Add_chunk
              { doc = "two"; off; last; bytes = String.sub xml off n }))
    in
    if last then body
    else begin
      Alcotest.(check int) "intermediate reply advances the offset" (off + n)
        (get_kv body "off");
      ship (off + n)
    end
  in
  let two = ship 0 in
  Alcotest.(check int) "same node count"
    (get_kv one "nodes") (get_kv two "nodes");
  let artifact name ext =
    read_file (Filename.concat cfg.Service.data_dir (name ^ ext))
  in
  Alcotest.(check string) "xml artifacts byte-identical"
    (artifact "one" ".xml") (artifact "two" ".xml");
  Alcotest.(check string) "ruid sidecars byte-identical"
    (artifact "one" ".ruid") (artifact "two" ".ruid");
  (* both serve identical query answers *)
  let count doc =
    get_kv (ok_body (C.request c (P.Count_doc { doc; xpath = "//book" })))
      "total"
  in
  Alcotest.(check int) "query answers match" (count "one") (count "two");
  (* an offset mismatch discards the spool; restarting from 0 succeeds *)
  ignore
    (ok_body
       (C.request c
          (P.Add_chunk { doc = "three"; off = 0; last = false; bytes = "<a>" })));
  (match
     C.request c
       (P.Add_chunk { doc = "three"; off = 999; last = false; bytes = "x" })
   with
  | P.Err msg ->
    Alcotest.(check bool) "names the mismatch" true
      (String.length msg > 0)
  | r -> Alcotest.failf "offset mismatch accepted: %s" (P.response_to_string r));
  let three =
    ok_body
      (C.request c
         (P.Add_chunk { doc = "three"; off = 0; last = true; bytes = "<a/>" }))
  in
  Alcotest.(check int) "restart from zero ingested cleanly" 2
    (get_kv three "nodes");
  (* a duplicate name is rejected at commit, and malformed spools error *)
  (match
     C.request c
       (P.Add_chunk { doc = "one"; off = 0; last = true; bytes = "<z/>" })
   with
  | P.Err _ -> ()
  | r -> Alcotest.failf "duplicate accepted: %s" (P.response_to_string r));
  (match
     C.request c
       (P.Add_chunk { doc = "bad"; off = 0; last = true; bytes = "<a><b>" })
   with
  | P.Err _ -> ()
  | r -> Alcotest.failf "malformed spool accepted: %s" (P.response_to_string r));
  (* ... and leaves no document behind *)
  match C.request c (P.Count_doc { doc = "bad"; xpath = "//*" }) with
  | P.Err _ -> ()
  | r -> Alcotest.failf "failed spool left a document: %s" (P.response_to_string r)

let test_add_doc_file_chunks () =
  (* a document beyond the frame cap ships as an ADDCHUNK sequence and
     serves like any other — the client never holds more than one chunk *)
  with_server [] @@ fun cfg _t ->
  let leaves = 90_000 in
  let path = Filename.temp_file "ruid-big" ".xml" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let oc = open_out_bin path in
  output_string oc "<r>";
  for i = 1 to leaves do
    output_string oc (Printf.sprintf "<x i='%d'/>" i)
  done;
  output_string oc "</r>";
  close_out oc;
  Alcotest.(check bool) "test file actually exceeds the frame cap" true
    ((Unix.stat path).Unix.st_size > P.max_frame);
  C.with_connection cfg.Service.socket_path @@ fun c ->
  let body = ok_body (C.add_doc_file c ~doc:"big" path) in
  Alcotest.(check int) "all nodes built" (leaves + 2) (get_kv body "nodes");
  let total =
    get_kv
      (ok_body (C.request c (P.Count_doc { doc = "big"; xpath = "//x" })))
      "total"
  in
  Alcotest.(check int) "queryable after chunked ingest" leaves total

let test_adddoc_depth_budget () =
  (* the server's --max-depth holds on the streaming ingest path *)
  let deep k =
    String.concat "" (List.init k (fun _ -> "<d>"))
    ^ String.concat "" (List.init k (fun _ -> "</d>"))
  in
  with_server ~max_depth:5 [] @@ fun cfg _t ->
  C.with_connection cfg.Service.socket_path @@ fun c ->
  ignore
    (ok_body (C.request c (P.Add_doc { doc = "ok5"; xml = deep 5 })));
  match C.request c (P.Add_doc { doc = "deep6"; xml = deep 6 }) with
  | P.Err msg ->
    Alcotest.(check bool) "mentions the depth budget" true
      (String.length msg > 0)
  | r -> Alcotest.failf "over-deep document accepted: %s" (P.response_to_string r)

(* ------------------------------------------------------------------ *)
(* Copy-on-first-write                                                 *)
(* ------------------------------------------------------------------ *)

(* What a held snapshot says about [doc]: collection-wide and
   per-document reads rendered to wire bytes, plus the published
   numbering's persisted form. *)
let held_view s doc =
  let d =
    match Rserver.Snapshot.find s doc with
    | Some (_, d) -> d
    | None -> Alcotest.failf "%s is not in the held snapshot" doc
  in
  List.map
    (fun r -> P.response_to_string (Service.eval_read s r))
    [ P.Count "//*"; P.Query "//*"; P.Count_doc { doc; xpath = "//*" };
      P.Query_doc { doc; xpath = "//*" }; P.Check doc ]
  @ List.map Bytes.to_string
      [ Ruid.Persist.xml_to_bytes d.Rserver.Snapshot.r2;
        Ruid.Persist.sidecar_to_bytes d.Rserver.Snapshot.r2 ]

let private_masters c =
  get_kv (ok_body (C.request c P.Stats)) "private_masters"

(* Hold the current snapshot across [doc]'s first UPDATE: the held
   snapshot must answer exactly as before and its numbering must still
   check — the writer works on its own clone, never on the published
   numbering it was handed — while the live snapshot shows the write. *)
let first_write_isolated c t doc =
  let held = Service.snapshot t in
  let before = held_view held doc in
  let writers = private_masters c in
  ignore
    (ok_body
       (C.request c
          (P.Update
             { doc; op = Wal.Insert { parent_rank = 0; pos = 0; tag = "cow" } })));
  Alcotest.(check (list string))
    (doc ^ ": held snapshot unchanged by the first write")
    before (held_view held doc);
  (match Rserver.Snapshot.find held doc with
  | Some (_, d) -> R2.check d.Rserver.Snapshot.r2
  | None -> assert false);
  Alcotest.(check int) (doc ^ ": the write is visible") 1
    (get_kv
       (ok_body (C.request c (P.Count_doc { doc; xpath = "//cow" })))
       "total");
  Alcotest.(check int) (doc ^ ": one more writer copy") (writers + 1)
    (private_masters c)

let test_first_write_isolation () =
  with_server [ ("boot", doc_of_string library) ] @@ fun cfg t ->
  C.with_connection cfg.Service.socket_path @@ fun c ->
  ignore (ok_body (C.request c (P.Add_doc { doc = "added"; xml = library })));
  ignore
    (ok_body
       (C.request c
          (P.Add_chunk { doc = "chunked"; off = 0; last = false;
                         bytes = String.sub library 0 20 })));
  ignore
    (ok_body
       (C.request c
          (P.Add_chunk { doc = "chunked"; off = 20; last = true;
                         bytes = String.sub library 20
                                   (String.length library - 20) })));
  Alcotest.(check int) "nothing written: no writer copies" 0
    (private_masters c);
  List.iter (first_write_isolated c t) [ "boot"; "added"; "chunked" ]

(* A chain [depth] elements deep: at max_area_size 64 it is one area, so
   every child inserted under its root raises the fan-out the area's
   62-bit local identifiers are enumerated with, until they overflow. *)
let chain depth =
  String.concat "" (List.init depth (Printf.sprintf "<c%d>"))
  ^ String.concat ""
      (List.init depth (fun i -> Printf.sprintf "</c%d>" (depth - 1 - i)))

let test_overflow_releases_group () =
  (* One commit group: the chain and the library share a write mutex. *)
  with_server ~commit_groups:1 ~max_area_size:64
    [ ("deep", doc_of_string (chain 16)); ("lib", doc_of_string library) ]
  @@ fun cfg _t ->
  C.with_connection cfg.Service.socket_path @@ fun c ->
  let insert doc =
    P.Update { doc; op = Wal.Insert { parent_rank = 0; pos = 0; tag = "x" } }
  in
  (* Uid.Overflow is raised after the tree changed *)
  let rec drive acked =
    if acked > 200 then Alcotest.fail "no overflow after 200 inserts"
    else
      match C.request c (insert "deep") with
      | P.Ok_ _ -> drive (acked + 1)
      | P.Err msg -> (acked, msg)
      | P.Busy msg -> Alcotest.failf "unexpected BUSY %s" msg
  in
  let acked, msg = drive 0 in
  Alcotest.(check bool)
    (Printf.sprintf "overflow answered as a rejected update (%s)" msg)
    true
    (String.starts_with ~prefix:"update rejected: " msg
    && contains msg "Overflow");
  (* the group's write mutex was released: another document of the group
     still commits, on a fresh connection (so possibly another worker) *)
  C.with_connection cfg.Service.socket_path (fun c2 ->
      match C.request_timeout c2 ~timeout_ms:10_000 (insert "lib") with
      | P.Ok_ _ -> ()
      | r ->
        Alcotest.failf "update to lib after the overflow: %s"
          (P.response_to_string r)
      | exception C.Timeout ->
        raise (Wedged "no reply to an update of lib within 10 s"));
  (* the half-applied writer copy was dropped, not published *)
  ignore (ok_body (C.request c (P.Check "deep")));
  let xs () =
    get_kv
      (ok_body (C.request c (P.Count_doc { doc = "deep"; xpath = "//x" })))
      "total"
  in
  Alcotest.(check int) "only acknowledged inserts visible" acked (xs ());
  Alcotest.(check int) "deep holds no writer copy, lib one" 1
    (private_masters c);
  (* the next write re-clones the published copy *)
  ignore
    (ok_body
       (C.request c (P.Update { doc = "deep"; op = Wal.Delete { rank = 1 } })));
  Alcotest.(check int) "writes resume" (acked - 1) (xs ());
  ignore (ok_body (C.request c (P.Check "deep")));
  Alcotest.(check int) "both hold writer copies" 2 (private_masters c)

(* The overflow with records of the same document still pending: the
   published copy lacks them, so the half-applied writer copy cannot just
   be dropped — the document is quarantined instead.  A 24-deep chain is
   one area that overflows after a few root inserts.  Those inserts are
   fired at once and a long commit interval keeps them parked in the
   queue while the overflowing insert arrives. *)
let test_overflow_with_records_pending () =
  let root_insert = Wal.Insert { parent_rank = 0; pos = 0; tag = "x" } in
  let edge =
    let r2 = R2.number ~max_area_size:64 (doc_of_string (chain 24)) in
    let rec fill n =
      match Wal.apply r2 root_insert with
      | _ -> fill (n + 1)
      | exception Ruid.Uid.Overflow -> n
    in
    fill 0
  in
  if edge < 1 || edge > 8 then
    Alcotest.failf "precondition: %d root inserts before the overflow" edge;
  with_server ~workers:(edge + 3) ~max_queue:32 ~commit_groups:1
    ~max_area_size:64 ~commit_interval_us:2_000_000
    [ ("deep", doc_of_string (chain 24)); ("lib", doc_of_string library) ]
  @@ fun cfg _t ->
  let update doc = P.Update { doc; op = root_insert } in
  let replies = Array.make edge None in
  let parked =
    Array.init edge (fun i ->
        Thread.create
          (fun () ->
            C.with_connection cfg.Service.socket_path @@ fun c ->
            replies.(i) <-
              Some
                (try C.request_timeout c ~timeout_ms:10_000 (update "deep")
                 with C.Timeout -> P.Err "no reply within 10 s"))
          ())
  in
  C.with_connection cfg.Service.socket_path @@ fun c ->
  let queued = Printf.sprintf "group=0 queue_depth=%d " edge in
  let deadline = Unix.gettimeofday () +. 5. in
  while not (contains (ok_body (C.request c P.Stats)) queued) do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "the first %d updates never sat in the commit queue" edge;
    Thread.delay 0.005
  done;
  (match C.request c (update "deep") with
  | P.Err msg
    when String.starts_with ~prefix:"update rejected: " msg
         && contains msg "Overflow" -> ()
  | r -> Alcotest.failf "overflow: %s" (P.response_to_string r));
  Array.iter Thread.join parked;
  Array.iter
    (function
      | Some (P.Err msg) when contains msg "quarantined" -> ()
      | Some r ->
        Alcotest.failf "parked update of the quarantined document: %s"
          (P.response_to_string r)
      | None -> Alcotest.fail "parked update got no reply")
    replies;
  (match C.request c (update "deep") with
  | P.Err msg when contains msg "quarantined" -> ()
  | r -> Alcotest.failf "update after quarantine: %s" (P.response_to_string r));
  (* the group's write mutex was released *)
  C.with_connection cfg.Service.socket_path (fun c2 ->
      match C.request_timeout c2 ~timeout_ms:10_000 (update "lib") with
      | P.Ok_ _ -> ()
      | r ->
        Alcotest.failf "update to lib after the quarantine: %s"
          (P.response_to_string r)
      | exception C.Timeout ->
        raise (Wedged "no reply to an update of lib within 10 s"));
  (* readers keep the last published copy, which never saw the inserts *)
  ignore (ok_body (C.request c (P.Check "deep")));
  Alcotest.(check int) "published copy untouched" 0
    (get_kv
       (ok_body (C.request c (P.Count_doc { doc = "deep"; xpath = "//x" })))
       "total")

(* A commit that fails after its records were applied: the next append of
   "lib" meets a directory where its journal was (EISDIR — tests run as
   root, so a permission bit would not stop the write).  The batch's
   writer hears that durability is unknown, later updates of "lib" are
   refused as quarantined, another document keeps committing, and readers
   keep the last published copy of "lib". *)
let test_commit_failure_quarantines () =
  with_server ~commit_groups:1
    [ ("lib", doc_of_string library); ("other", doc_of_string library) ]
  @@ fun cfg _t ->
  let insert doc =
    P.Update { doc; op = Wal.Insert { parent_rank = 0; pos = 0; tag = "x" } }
  in
  C.with_connection cfg.Service.socket_path @@ fun c ->
  ignore (ok_body (C.request c (insert "lib")));
  let wal = Filename.concat cfg.Service.data_dir "lib.wal" in
  Sys.rename wal (wal ^ ".aside");
  Unix.mkdir wal 0o755;
  Fun.protect
    ~finally:(fun () ->
      Unix.rmdir wal;
      Sys.rename (wal ^ ".aside") wal)
  @@ fun () ->
  (match C.request c (insert "lib") with
  | P.Err msg
    when String.starts_with ~prefix:"commit failed (durability unknown): " msg
         && contains msg "EISDIR" -> ()
  | r -> Alcotest.failf "failed commit: %s" (P.response_to_string r));
  (match C.request c (insert "lib") with
  | P.Err msg
    when String.starts_with
           ~prefix:"update rejected: document \"lib\" is quarantined (" msg
    -> ()
  | r -> Alcotest.failf "update after the failure: %s" (P.response_to_string r));
  let other = ok_body (C.request c (insert "other")) in
  Alcotest.(check int) "another document commits alone" 1
    (get_kv other "batch");
  let check = ok_body (C.request c (P.Check "lib")) in
  Alcotest.(check bool) (Printf.sprintf "lib consistent (%s)" check) true
    (contains check "consistent");
  Alcotest.(check int) "lib served at its last published version" 1
    (get_kv
       (ok_body (C.request c (P.Count_doc { doc = "lib"; xpath = "//x" })))
       "total")

let test_metrics_registry () =
  let m = Rserver.Metrics.create () in
  for i = 1 to 100 do
    Rserver.Metrics.record m ~verb:"QUERY" ~outcome:`Ok
      ~latency_ns:(float_of_int (i * 1000))
  done;
  Rserver.Metrics.record m ~verb:"COUNT" ~outcome:`Busy ~latency_ns:50.;
  Rserver.Metrics.record m ~verb:"COUNT" ~outcome:`Err ~latency_ns:70.;
  let s = Rserver.Metrics.summary m in
  Alcotest.(check int) "requests" 102 s.Rserver.Metrics.requests;
  Alcotest.(check int) "busy" 1 s.Rserver.Metrics.busy;
  Alcotest.(check bool) "p50 <= p95 <= p99" true
    (s.Rserver.Metrics.p50_ns <= s.Rserver.Metrics.p95_ns
    && s.Rserver.Metrics.p95_ns <= s.Rserver.Metrics.p99_ns);
  Alcotest.(check bool) "p99 within max" true
    (s.Rserver.Metrics.p99_ns <= s.Rserver.Metrics.max_ns);
  Alcotest.(check bool) "p50 log-accurate" true
    (s.Rserver.Metrics.p50_ns >= 25_000. && s.Rserver.Metrics.p50_ns <= 131_072.);
  let verbs = Rserver.Metrics.by_verb m in
  Alcotest.(check int) "two verbs" 2 (List.length verbs);
  Rserver.Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Rserver.Metrics.summary m).Rserver.Metrics.requests

let suite =
  [
    Alcotest.test_case "protocol: request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "protocol: rejects" `Quick test_request_rejects;
    Alcotest.test_case "protocol: framing" `Quick test_frame_io;
    Alcotest.test_case "protocol: response round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "session: basics" `Quick test_basic_session;
    Alcotest.test_case "session: update + query" `Quick test_update_and_query;
    Alcotest.test_case "session: survives bad input" `Quick test_invalid_requests_over_wire;
    Alcotest.test_case "EXPLAIN verb" `Quick test_explain_verb;
    Alcotest.test_case "planner on/off: byte-identical replies" `Quick
      test_planner_replies_byte_identical;
    Alcotest.test_case "snapshot isolation under writer" `Quick test_snapshot_isolation;
    Alcotest.test_case "BUSY when queue full" `Quick test_busy_when_queue_full;
    Alcotest.test_case "deadline expires in queue" `Quick test_deadline_expires_in_queue;
    Alcotest.test_case "shutdown leaves recoverable WAL" `Quick test_shutdown_leaves_recoverable_wal;
    Alcotest.test_case "incremental publication = full round-trip (100 seeds)" `Quick test_incremental_publication_equivalence;
    Alcotest.test_case "per-document publication cursors" `Quick test_per_document_version_cursor;
    Alcotest.test_case "group commit: 4 writers, atomic batched acks" `Quick test_group_commit_service;
    Alcotest.test_case "commit pipelines: 12 writers x 6 docs x 4 groups" `Quick
      test_commit_pipelines_concurrent_docs;
    Alcotest.test_case "segment rotation under live service" `Quick test_segment_rotation_service;
    Alcotest.test_case "failed rotation: replies stand, retried later" `Quick
      test_failed_rotation_retries;
    Alcotest.test_case "restart drops an earlier run's generations" `Quick
      test_restart_drops_stale_generations;
    Alcotest.test_case "SHUTDOWN verb" `Quick test_shutdown_verb;
    Alcotest.test_case "serve, replica, router stop on SIGTERM/SIGINT" `Quick
      test_stop_signals;
    Alcotest.test_case "client: unreachable socket exits 6" `Quick
      test_client_cannot_connect;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "scheduler bounds + drain" `Quick test_scheduler_bounds;
    Alcotest.test_case "io_stats: concurrent counters" `Quick test_io_stats_concurrent;
    Alcotest.test_case "buffer pool: concurrent touches" `Quick test_buffer_pool_concurrent;
    Alcotest.test_case "peer drop mid-reply: one session error, server lives"
      `Quick test_peer_drop_mid_reply;
    Alcotest.test_case "ADDCHUNK: spooled ingest == one-shot ADDDOC" `Quick
      test_add_chunk;
    Alcotest.test_case "add_doc_file: oversized document ships chunked" `Quick
      test_add_doc_file_chunks;
    Alcotest.test_case "ADDDOC honors the nesting depth budget" `Quick
      test_adddoc_depth_budget;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "first write never touches a published numbering"
      `Quick test_first_write_isolation;
    Alcotest.test_case "overflow rejects the update, releases the group"
      `Quick test_overflow_releases_group;
    Alcotest.test_case "overflow with records pending quarantines" `Quick
      test_overflow_with_records_pending;
    Alcotest.test_case "STATS reports memory" `Quick test_stats_memory;
    Alcotest.test_case "a failed commit quarantines its document" `Quick
      test_commit_failure_quarantines;
  ]
