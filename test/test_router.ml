(* Sharded collection tier: merge-kernel byte equivalence, scatter-gather
   against live shards (router reply == pure merge of the per-shard
   replies), single-document forwarding with probe-on-miss, degraded
   service with a shard down, online rebalance, and runtime collection
   membership (ADDDOC / DROPDOC / ADOPT abort). *)

module Dom = Rxml.Dom
module P = Rserver.Protocol
module C = Rserver.Client
module Service = Rserver.Service
module Router = Rserver.Router
module Shard_map = Rserver.Shard_map
module Wal = Rstorage.Wal

let unique =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%d-r%d" (Unix.getpid ()) !n

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ()) ("ruid-rt-" ^ unique ())
  in
  Unix.mkdir d 0o755;
  d

let sock_path () = Filename.concat "/tmp" ("ruid-" ^ unique () ^ ".sock")

let doc_of_string s = Dom.root_element (Rxml.Parser.parse_string s)

let shard_cfg ?(wal_segment_bytes = 0) () =
  {
    Service.socket_path = sock_path ();
    data_dir = temp_dir ();
    workers = 2;
    max_queue = 16;
    deadline_ms = 0;
    max_area_size = 8;
    max_depth = 10_000;
    domains = 0;
    cache_mb = 0;
    commit_interval_us = 0;
    commit_max_batch = 64;
    commit_groups = 1;
    wal_segment_bytes;
    plan_cache = 64;
    epoch = 1;
    upstream = None;
    poll_ms = 500;
  }

(* Three shards, one router.  [docs.(i)] is hosted by shard [i] from
   boot; the router's startup DOCS sweep catalogues every placement, so
   hash-disagreeing names still route. *)
let with_tier ?(docs = [| []; []; [] |]) ?wal_segment_bytes f =
  let cfgs = Array.map (fun _ -> shard_cfg ?wal_segment_bytes ()) docs in
  let shards = Array.map2 (fun cfg d -> Service.start cfg d) cfgs docs in
  let rcfg =
    Router.default_config ~socket_path:(sock_path ())
      ~shard_sockets:(Array.map (fun c -> c.Service.socket_path) cfgs)
      ()
  in
  let rcfg = { rcfg with Router.shard_deadline_ms = 5_000 } in
  let router = Router.start rcfg in
  let stopped = Array.map (fun _ -> ref false) shards in
  let stop_shard i =
    if not !(stopped.(i)) then begin
      stopped.(i) := true;
      Service.stop shards.(i)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Array.iteri (fun i _ -> stop_shard i) shards)
    (fun () -> f ~cfgs ~rcfg ~shards ~stop_shard)

let ok_body = function
  | P.Ok_ body -> body
  | P.Err m -> Alcotest.failf "unexpected ERR %s" m
  | P.Busy m -> Alcotest.failf "unexpected BUSY %s" m

let err_body = function
  | P.Err m -> m
  | r -> Alcotest.failf "expected ERR, got %s" (P.response_to_string r)

let ask sock req = C.with_connection sock (fun c -> C.request c req)

let get_kv body key =
  match C.kv_int body key with
  | Some v -> v
  | None -> Alcotest.failf "reply %S lacks %s=" body key

let is_partial body = C.kv body "partial" <> None

(* The shard documents: distinct tags per shard so per-shard totals are
   recognizable in merged replies. *)
let shard_docs () =
  [|
    [ ("alpha", doc_of_string "<a><x/><x/><y/></a>") ];
    [ ("beta", doc_of_string "<a><x/><y/><y/><y/></a>");
      ("gamma", doc_of_string "<a><z/></a>") ];
    [ ("delta", doc_of_string "<a><x/><z/><z/></a>") ];
  |]

(* ------------------------------------------------------------------ *)
(* Pure merge kernels                                                  *)
(* ------------------------------------------------------------------ *)

let test_merge_count () =
  Alcotest.(check string)
    "sums and concatenates in shard order" "v=7 total=5 a=2 b=3"
    (Router.merge_count ~shards:2
       ~replies:[ (0, "v=3 total=2 a=2"); (1, "v=4 total=3 b=3") ]
       ~missing:[]);
  Alcotest.(check string)
    "missing shard flags partial" "v=3 total=2 a=2 partial=2/3"
    (Router.merge_count ~shards:3 ~replies:[ (0, "v=3 total=2 a=2") ]
       ~missing:[ 1; 2 ]);
  Alcotest.(check string)
    "shard-side elision survives" "v=5 total=9 a=4 b=5 ..."
    (Router.merge_count ~shards:2
       ~replies:[ (0, "v=2 total=4 a=4 ..."); (1, "v=3 total=5 b=5") ]
       ~missing:[])

let test_merge_query () =
  Alcotest.(check string)
    "ids concatenate in shard order"
    "v=5 total=3 a=1 b=2 ids a:(1,1,false) b:(2,1,false) b:(2,2,false)"
    (Router.merge_query ~shards:2
       ~replies:
         [ (0, "v=2 total=1 a=1 ids a:(1,1,false)");
           (1, "v=3 total=2 b=2 ids b:(2,1,false) b:(2,2,false)") ]
       ~missing:[]);
  (* a merged total beyond the id cap marks the listing elided, exactly
     as a single shard would *)
  let many =
    String.concat " " (List.init 30 (fun i -> Printf.sprintf "a:(1,%d,false)" i))
  in
  let merged =
    Router.merge_query ~shards:2
      ~replies:
        [ (0, Printf.sprintf "v=1 total=30 a=30 ids %s" many);
          (1, "v=1 total=30 b=30 ids " ^ many) ]
      ~missing:[]
  in
  Alcotest.(check int) "total summed" 60 (get_kv merged "total");
  Alcotest.(check bool) "id listing elided" true
    (String.length merged >= 3
    && String.sub merged (String.length merged - 3) 3 = "...");
  (* exactly id_cap identifiers listed *)
  let ids_part =
    String.split_on_char ' ' merged
    |> List.filter (fun t -> String.contains t ':')
  in
  Alcotest.(check int) "capped at 32 ids" 32 (List.length ids_part)

let test_merge_explain () =
  Alcotest.(check string)
    "sections in shard order, missing marked"
    "v=5 partial=1/3\nshard 0\nplan A\nshard 1 unavailable\nshard 2\nplan C"
    (Router.merge_explain ~shards:3
       ~replies:[ (0, "v=2\nplan A"); (2, "v=3\nplan C") ]
       ~missing:[ 1 ])

let test_merge_docs () =
  Alcotest.(check string)
    "per-shard counts, never names" "v=6 docs=5 shard0=2 shard1=3"
    (Router.merge_docs ~shards:2
       ~replies:
         [ (0, "v=2 docs=2 alpha beta"); (1, "v=4 docs=3 gamma delta eps") ]
       ~missing:[])

(* ------------------------------------------------------------------ *)
(* Scatter-gather over live shards                                     *)
(* ------------------------------------------------------------------ *)

(* The router's collection-wide answer must be byte-identical to the
   pure merge of the shards' own answers — the merge kernels are the
   specification, the scatter is just transport. *)
let test_scatter_equivalence () =
  with_tier ~docs:(shard_docs ()) @@ fun ~cfgs ~rcfg ~shards:_ ~stop_shard:_ ->
  let shard_reply req =
    Array.to_list cfgs
    |> List.mapi (fun i cfg ->
           (i, ok_body (ask cfg.Service.socket_path req)))
  in
  List.iter
    (fun (req, merge, label) ->
      let expect =
        merge ~shards:3 ~replies:(shard_reply req) ~missing:[]
      in
      let got = ok_body (ask rcfg.Router.socket_path req) in
      Alcotest.(check string) label expect got)
    [
      (P.Count "//x", Router.merge_count, "COUNT merges");
      (P.Count "//nothing", Router.merge_count, "empty COUNT merges");
      (P.Query "//y", Router.merge_query, "QUERY merges");
      (P.Query "//z", Router.merge_query, "QUERY merges (other shards)");
      (P.Docs, Router.merge_docs, "DOCS merges");
    ];
  (* EXPLAIN executes uncached and reports measured timings, so byte
     equality against a second execution cannot hold; check the merged
     shape instead: summed version line and one section per shard. *)
  let body = ok_body (ask rcfg.Router.socket_path (P.Explain "//x")) in
  let direct = shard_reply (P.Explain "//x") in
  let v_sum =
    List.fold_left (fun acc (_, b) -> acc + get_kv b "v") 0 direct
  in
  Alcotest.(check int) "EXPLAIN v is the version sum" v_sum (get_kv body "v");
  List.iter
    (fun i ->
      let heading = Printf.sprintf "shard %d\n" i in
      let found =
        let hl = String.length heading and bl = String.length body in
        let rec at j = j + hl <= bl && (String.sub body j hl = heading || at (j + 1)) in
        at 0
      in
      Alcotest.(check bool) (Printf.sprintf "shard %d section" i) true found)
    [ 0; 1; 2 ];
  (* the total count across the tier is the sum of the shards *)
  let count = ok_body (ask rcfg.Router.socket_path (P.Count "//*")) in
  let per_shard =
    List.fold_left
      (fun acc (_, b) -> acc + get_kv b "total")
      0
      (shard_reply (P.Count "//*"))
  in
  Alcotest.(check int) "scatter count == sum of shard counts" per_shard
    (get_kv count "total")

let test_scatter_with_writer () =
  with_tier ~docs:(shard_docs ()) @@ fun ~cfgs:_ ~rcfg ~shards:_ ~stop_shard:_ ->
  let stop = Atomic.make false in
  let writer =
    Thread.create
      (fun () ->
        C.with_connection rcfg.Router.socket_path @@ fun c ->
        while not (Atomic.get stop) do
          ignore
            (C.request c
               (P.Update
                  { doc = "beta";
                    op = Wal.Insert { parent_rank = 0; pos = 0; tag = "y" } }))
        done)
      ()
  in
  C.with_connection rcfg.Router.socket_path (fun c ->
      let last_v = ref 0 in
      for _ = 1 to 40 do
        let body = ok_body (C.request c (P.Count "//y")) in
        let v = get_kv body "v" in
        let total = get_kv body "total" in
        let listed =
          String.split_on_char ' ' body
          |> List.filter_map (fun tok ->
                 match String.index_opt tok '=' with
                 | Some i
                   when String.sub tok 0 i <> "v"
                        && String.sub tok 0 i <> "total"
                        && String.sub tok 0 i <> "partial" ->
                   int_of_string_opt
                     (String.sub tok (i + 1) (String.length tok - i - 1))
                 | _ -> None)
          |> List.fold_left ( + ) 0
        in
        Alcotest.(check bool) "no partial under a live writer" false
          (is_partial body);
        Alcotest.(check int) "total is the sum of the per-doc tokens" total
          listed;
        Alcotest.(check bool) "merged version never regresses" true
          (v >= !last_v);
        last_v := v
      done);
  Atomic.set stop true;
  Thread.join writer

let test_shard_down_degrades () =
  with_tier ~docs:(shard_docs ()) @@ fun ~cfgs ~rcfg ~shards:_ ~stop_shard ->
  (* take shard 1 (beta, gamma) down; scatters must flag partial and
     still carry the live shards' answers *)
  stop_shard 1;
  let body = ok_body (ask rcfg.Router.socket_path (P.Count "//*")) in
  Alcotest.(check bool) "partial flagged" true (is_partial body);
  Alcotest.(check bool) "partial=1/3" true (C.kv body "partial" = Some "1/3");
  let alpha = ok_body (ask cfgs.(0).Service.socket_path (P.Count "//*")) in
  let delta = ok_body (ask cfgs.(2).Service.socket_path (P.Count "//*")) in
  Alcotest.(check int) "live shards fully represented"
    (get_kv alpha "total" + get_kv delta "total")
    (get_kv body "total");
  (* single-document verbs: live shard unaffected, dead shard's answer
     is an error, never a hang *)
  let ok = ok_body (ask rcfg.Router.socket_path
                      (P.Count_doc { doc = "alpha"; xpath = "//x" })) in
  Alcotest.(check int) "live doc serves" 2 (get_kv ok "total");
  (match
     ask rcfg.Router.socket_path (P.Count_doc { doc = "beta"; xpath = "//x" })
   with
  | P.Err _ -> ()
  | r -> Alcotest.failf "dead shard's doc: %s" (P.response_to_string r));
  (match
     ask rcfg.Router.socket_path
       (P.Update
          { doc = "beta";
            op = Wal.Insert { parent_rank = 0; pos = 0; tag = "y" } })
   with
  | P.Err _ -> ()
  | r -> Alcotest.failf "update to dead shard: %s" (P.response_to_string r));
  (* EXPLAIN marks the hole by name *)
  let ex = ok_body (ask rcfg.Router.socket_path (P.Explain "//x")) in
  let has_unavailable =
    let needle = "shard 1 unavailable" in
    let nl = String.length needle and bl = String.length ex in
    let rec at i = i + nl <= bl && (String.sub ex i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "explain marks the dead shard" true has_unavailable

(* ------------------------------------------------------------------ *)
(* Scatter from the session thread                                     *)
(* ------------------------------------------------------------------ *)

(* The per-document tokens of a COUNT reply, summed. *)
let listed_sum body =
  String.split_on_char ' ' body
  |> List.filter_map (fun tok ->
         match String.index_opt tok '=' with
         | Some i
           when not (List.mem (String.sub tok 0 i) [ "v"; "total"; "partial" ])
           ->
           int_of_string_opt
             (String.sub tok (i + 1) (String.length tok - i - 1))
         | _ -> None)
  |> List.fold_left ( + ) 0

(* A toy shard: a bare listener answering every verb with [reply ()]. *)
let with_toy_shard reply f =
  let module L = Rserver.Listener in
  let sock = sock_path () in
  let l = L.create ~metrics:(Rserver.Metrics.create ()) sock in
  L.serve l ~teardown:ignore (fun _ -> L.Inline reply);
  Fun.protect ~finally:(fun () -> L.stop l) (fun () -> f sock)

let with_router ?(fanout = 0) ?(deadline_ms = 5_000) shard_sockets f =
  let rcfg =
    Router.default_config ~socket_path:(sock_path ()) ~shard_sockets ()
  in
  let rcfg =
    { rcfg with Router.fanout; shard_deadline_ms = deadline_ms }
  in
  let router = Router.start rcfg in
  Fun.protect
    ~finally:(fun () -> Router.stop router)
    (fun () -> f rcfg.Router.socket_path)

(* A shard that accepts and never replies costs a scatter its deadline,
   not more, and comes back on the next scatter once it answers. *)
let test_silent_shard_deadline () =
  let mute = Atomic.make true in
  let answer body () = P.Ok_ body in
  let silent () =
    while Atomic.get mute do
      Thread.delay 0.005
    done;
    P.Ok_ "v=1 total=3 d1=3"
  in
  with_toy_shard (answer "v=1 total=2 d0=2") @@ fun s0 ->
  with_toy_shard silent @@ fun s1 ->
  with_toy_shard (answer "v=1 total=5 d2=5") @@ fun s2 ->
  Fun.protect ~finally:(fun () -> Atomic.set mute false) @@ fun () ->
  let deadline_ms = 200 in
  with_router ~deadline_ms [| s0; s1; s2 |] @@ fun rsock ->
  C.with_connection rsock @@ fun c ->
  let t0 = Unix.gettimeofday () in
  let body = ok_body (C.request c (P.Count "//x")) in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Alcotest.(check string) "the live shards merge, flagged partial"
    "v=2 total=7 d0=2 d2=5 partial=1/3" body;
  Alcotest.(check bool)
    (Printf.sprintf "answered after the deadline, not long after (%.0f ms)"
       elapsed_ms)
    true
    (elapsed_ms >= float_of_int deadline_ms
    && elapsed_ms < float_of_int deadline_ms +. 1500.);
  let up = C.kv (ok_body (C.request c P.Stats)) "router_up" in
  Alcotest.(check (option string)) "the silent shard is marked down"
    (Some "1,0,1") up;
  Atomic.set mute false;
  Alcotest.(check string) "the next scatter reconnects"
    "v=3 total=10 d0=2 d1=3 d2=5" (ok_body (C.request c (P.Count "//x")));
  Alcotest.(check (option string)) "and marks it up again" (Some "1,1,1")
    (C.kv (ok_body (C.request c P.Stats)) "router_up")

(* Bounding the requests outstanding changes when shards are asked, not
   what the router answers. *)
let test_fanout_one_same_bytes () =
  with_tier ~docs:(shard_docs ()) @@ fun ~cfgs ~rcfg ~shards:_ ~stop_shard:_ ->
  let shard_sockets = Array.map (fun c -> c.Service.socket_path) cfgs in
  let requests =
    [ P.Count "//x"; P.Count "//*"; P.Query "//y"; P.Query "//a/z";
      P.Docs; P.Count "//nothing"; P.Query "bad[" ]
  in
  let replies sock =
    C.with_connection sock @@ fun c ->
    List.map (fun r -> P.response_to_string (C.request c r)) requests
  in
  let all = replies rcfg.Router.socket_path in
  List.iter
    (fun fanout ->
      with_router ~fanout shard_sockets @@ fun rsock ->
      List.iter2
        (fun req (a, b) ->
          Alcotest.(check string)
            (Printf.sprintf "fanout %d: %s" fanout (P.request_to_string req))
            a b)
        requests
        (List.combine all (replies rsock)))
    [ 1; 2 ]

(* Eight sessions scatter at once, over routers with every fanout, while
   a writer updates one shard: every scatter completes, and each total is
   the sum of its per-document tokens. *)
let test_concurrent_scatters () =
  with_tier ~docs:(shard_docs ()) @@ fun ~cfgs ~rcfg ~shards:_ ~stop_shard:_ ->
  let shard_sockets = Array.map (fun c -> c.Service.socket_path) cfgs in
  with_router ~fanout:1 shard_sockets @@ fun narrow ->
  let stop = Atomic.make false in
  let writer =
    Thread.create
      (fun () ->
        C.with_connection rcfg.Router.socket_path @@ fun c ->
        while not (Atomic.get stop) do
          ignore
            (C.request c
               (P.Update
                  { doc = "beta";
                    op = Wal.Insert { parent_rank = 0; pos = 0; tag = "y" } }))
        done)
      ()
  in
  let bad = ref [] and mu = Mutex.create () in
  let note msg =
    Mutex.lock mu;
    bad := msg :: !bad;
    Mutex.unlock mu
  in
  let session k =
    Thread.create
      (fun () ->
        let sock = if k mod 2 = 0 then rcfg.Router.socket_path else narrow in
        C.with_connection sock @@ fun c ->
        for _ = 1 to 25 do
          match C.request c (P.Count "//y") with
          | P.Ok_ body ->
            if is_partial body then note ("partial: " ^ body)
            else if get_kv body "total" <> listed_sum body then
              note ("total is not the sum of its tokens: " ^ body)
          | r -> note (P.response_to_string r)
        done)
      ()
  in
  let sessions = List.init 8 session in
  List.iter Thread.join sessions;
  Atomic.set stop true;
  Thread.join writer;
  match !bad with
  | [] -> ()
  | m :: _ -> Alcotest.failf "%d bad replies, e.g. %s" (List.length !bad) m

(* The scatter runs on the session thread: while the shards handle it,
   and after 200 of them, the process has no thread it did not have
   before. *)
let test_scatter_spawns_no_threads () =
  let peak = Atomic.make 0 in
  let rec raise_peak n =
    let p = Atomic.get peak in
    if n > p && not (Atomic.compare_and_set peak p n) then raise_peak n
  in
  let shard () =
    raise_peak (Rserver.Metrics.proc_status "Threads");
    P.Ok_ "v=1 total=1 d=1"
  in
  with_toy_shard shard @@ fun s0 ->
  with_toy_shard shard @@ fun s1 ->
  with_toy_shard shard @@ fun s2 ->
  with_router [| s0; s1; s2 |] @@ fun rsock ->
  C.with_connection rsock @@ fun c ->
  (* the first scatter opens the pooled connections *)
  ignore (ok_body (C.request c (P.Count "//d")));
  let baseline = Rserver.Metrics.proc_status "Threads" in
  Atomic.set peak 0;
  for _ = 1 to 200 do
    ignore (ok_body (C.request c (P.Count "//d")))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "no thread while shards answer (%d, before %d)"
       (Atomic.get peak) baseline)
    true
    (Atomic.get peak <= baseline);
  (* a thread of an earlier test may still be exiting, never starting *)
  let after = Rserver.Metrics.proc_status "Threads" in
  Alcotest.(check bool)
    (Printf.sprintf "no thread left behind (%d, before %d)" after baseline)
    true (after <= baseline)

(* ------------------------------------------------------------------ *)
(* Forwarding, membership, rebalance                                   *)
(* ------------------------------------------------------------------ *)

let test_forward_and_probe () =
  with_tier ~docs:(shard_docs ()) @@ fun ~cfgs ~rcfg ~shards:_ ~stop_shard:_ ->
  (* forwarded reads are byte-identical to asking the shard directly *)
  List.iter
    (fun (doc, shard) ->
      let req = P.Query_doc { doc; xpath = "//*" } in
      Alcotest.(check string)
        (doc ^ " forwards")
        (ok_body (ask cfgs.(shard).Service.socket_path req))
        (ok_body (ask rcfg.Router.socket_path req)))
    [ ("alpha", 0); ("beta", 1); ("gamma", 1); ("delta", 2) ];
  (* probe-on-miss: plant a document directly on a non-hash shard behind
     the router's back; the first routed request finds and catalogues it *)
  let planted = "planted" in
  let away = (Shard_map.hash ~shards:3 planted + 1) mod 3 in
  ignore
    (ok_body
       (ask cfgs.(away).Service.socket_path
          (P.Add_doc { doc = planted; xml = "<p><q/></p>" })));
  let body =
    ok_body
      (ask rcfg.Router.socket_path
         (P.Count_doc { doc = planted; xpath = "//q" }))
  in
  Alcotest.(check int) "probe found the planted doc" 1 (get_kv body "total");
  (* unknown documents still fail after probing everywhere *)
  (match
     ask rcfg.Router.socket_path (P.Count_doc { doc = "ghost"; xpath = "//q" })
   with
  | P.Err _ -> ()
  | r -> Alcotest.failf "ghost doc: %s" (P.response_to_string r))

let test_membership_via_router () =
  with_tier @@ fun ~cfgs ~rcfg ~shards:_ ~stop_shard:_ ->
  (* the tier boots empty; ADDDOC through the router lands each document
     on its hash shard *)
  let names = List.init 12 (fun i -> Printf.sprintf "m%d" i) in
  List.iter
    (fun name ->
      let body =
        ok_body
          (ask rcfg.Router.socket_path
             (P.Add_doc { doc = name; xml = "<m><n/><n/></m>" }))
      in
      (* 3 elements + the numbering's virtual root *)
      Alcotest.(check int) "nodes counted" 4 (get_kv body "nodes"))
    names;
  let docs = ok_body (ask rcfg.Router.socket_path P.Docs) in
  Alcotest.(check int) "all documents hosted" 12 (get_kv docs "docs");
  (* every document sits on its hash shard — the ingest contract *)
  List.iter
    (fun name ->
      let s = Shard_map.hash ~shards:3 name in
      let direct =
        ask cfgs.(s).Service.socket_path
          (P.Count_doc { doc = name; xpath = "//n" })
      in
      Alcotest.(check int) (name ^ " on its hash shard") 2
        (get_kv (ok_body direct) "total"))
    names;
  (* duplicates are rejected by the owning shard *)
  (match
     ask rcfg.Router.socket_path (P.Add_doc { doc = "m3"; xml = "<m/>" })
   with
  | P.Err _ -> ()
  | r -> Alcotest.failf "duplicate: %s" (P.response_to_string r));
  (* DROPDOC retires the document everywhere *)
  ignore (ok_body (ask rcfg.Router.socket_path (P.Drop_doc "m3")));
  let docs = ok_body (ask rcfg.Router.socket_path P.Docs) in
  Alcotest.(check int) "one fewer document" 11 (get_kv docs "docs");
  (* and the name can be reused (retired slots revive) *)
  ignore
    (ok_body
       (ask rcfg.Router.socket_path
          (P.Add_doc { doc = "m3"; xml = "<m><n/></m>" })));
  let body =
    ok_body
      (ask rcfg.Router.socket_path (P.Count_doc { doc = "m3"; xpath = "//n" }))
  in
  Alcotest.(check int) "revived with fresh content" 1 (get_kv body "total");
  (* chunked ingest through the router: [place] is deterministic, so
     every ADDCHUNK frame of the sequence lands on the same shard's
     spool — even across separate router sessions *)
  let big = "mbig" in
  let xml =
    "<m>" ^ String.concat "" (List.init 40 (fun _ -> "<n/>")) ^ "</m>"
  in
  let len = String.length xml in
  let rec ship off =
    let n = min 9 (len - off) in
    let last = off + n >= len in
    let body =
      ok_body
        (ask rcfg.Router.socket_path
           (P.Add_chunk { doc = big; off; last; bytes = String.sub xml off n }))
    in
    if last then body else ship (off + n)
  in
  Alcotest.(check int) "chunked document fully built" 42
    (get_kv (ship 0) "nodes");
  (* the router catalogued it on commit: the single-doc fast path routes *)
  Alcotest.(check int) "chunked document serves through the router" 40
    (get_kv
       (ok_body
          (ask rcfg.Router.socket_path (P.Count_doc { doc = big; xpath = "//n" })))
       "total");
  (* and it sits on its hash shard, like any one-shot ADDDOC *)
  let s = Shard_map.hash ~shards:3 big in
  Alcotest.(check int) "chunked document on its hash shard" 40
    (get_kv
       (ok_body
          (ask cfgs.(s).Service.socket_path
             (P.Count_doc { doc = big; xpath = "//n" })))
       "total")

let strip_version body =
  String.split_on_char ' ' body
  |> List.filter (fun tok ->
         not (String.length tok > 2 && String.sub tok 0 2 = "v="))
  |> String.concat " "

let test_rebalance () =
  with_tier ~docs:(shard_docs ()) @@ fun ~cfgs ~rcfg ~shards:_ ~stop_shard:_ ->
  C.with_connection rcfg.Router.socket_path @@ fun c ->
  (* write a little history first so the journal ships too *)
  for _ = 1 to 5 do
    ignore
      (ok_body
         (C.request c
            (P.Update
               { doc = "beta";
                 op = Wal.Insert { parent_rank = 0; pos = 0; tag = "y" } })))
  done;
  let before =
    strip_version
      (ok_body (C.request c (P.Query_doc { doc = "beta"; xpath = "//y" })))
  in
  let body = ok_body (C.request c (P.Rebalance { doc = "beta"; target = 0 })) in
  Alcotest.(check bool) "reports the move" true
    (C.kv body "from" = Some "1" && C.kv body "to" = Some "0");
  Alcotest.(check bool) "reports a measured pause" true
    (C.kv body "pause_ms" <> None);
  (* identical answers after the move, modulo the snapshot version *)
  let after =
    strip_version
      (ok_body (C.request c (P.Query_doc { doc = "beta"; xpath = "//y" })))
  in
  Alcotest.(check string) "query results identical after the move" before
    after;
  (* the source shard no longer owns it; the target answers directly *)
  (match
     ask cfgs.(1).Service.socket_path
       (P.Count_doc { doc = "beta"; xpath = "//y" })
   with
  | P.Err _ -> ()
  | r -> Alcotest.failf "source still owns beta: %s" (P.response_to_string r));
  Alcotest.(check string) "target serves it byte-identically"
    after
    (strip_version
       (ok_body
          (ask cfgs.(0).Service.socket_path
             (P.Query_doc { doc = "beta"; xpath = "//y" }))));
  (* the moved artifacts pass fsck on the target's disk *)
  let base = Filename.concat cfgs.(0).Service.data_dir "beta" in
  let status =
    Wal.fsck ~xml:(base ^ ".xml") ~sidecar:(base ^ ".ruid")
      ~wal:(base ^ ".wal") ()
  in
  Alcotest.(check bool) "fsck rates the target recoverable" true
    (Wal.exit_code status <= 1);
  (* updates keep flowing to the new home through the router *)
  ignore
    (ok_body
       (C.request c
          (P.Update
             { doc = "beta";
               op = Wal.Insert { parent_rank = 0; pos = 0; tag = "y" } })));
  (* moving to the current owner is a no-op, not an error *)
  let again = ok_body (C.request c (P.Rebalance { doc = "beta"; target = 0 })) in
  Alcotest.(check bool) "idempotent" true (C.kv again "pause_ms" <> None);
  (* a shard refuses the orchestration verb *)
  let msg = err_body (ask cfgs.(2).Service.socket_path
                        (P.Rebalance { doc = "x"; target = 0 })) in
  Alcotest.(check bool) "shard points at the router" true
    (String.length msg > 0)

(* A move while the source rotates: a writer inserts through the router
   the whole time, and the source's journal rotates every few commits,
   retiring the pair phase A ships.  The move still commits, and every
   acknowledged insert is on the target. *)
let test_rebalance_under_rotation () =
  with_tier ~docs:(shard_docs ()) ~wal_segment_bytes:64
  @@ fun ~cfgs ~rcfg ~shards:_ ~stop_shard:_ ->
  let rsock = rcfg.Router.socket_path in
  let insert_y =
    P.Update
      { doc = "beta"; op = Wal.Insert { parent_rank = 0; pos = 0; tag = "y" } }
  in
  let stop = Atomic.make false and acked = Atomic.make 0 in
  let writer =
    Thread.create
      (fun () ->
        C.with_connection rsock @@ fun c ->
        while not (Atomic.get stop) do
          match C.request c insert_y with
          | P.Ok_ _ -> Atomic.incr acked
          | r -> Alcotest.failf "routed UPDATE: %s" (P.response_to_string r)
        done)
      ()
  in
  let rotations () =
    get_kv (ok_body (ask cfgs.(1).Service.socket_path P.Stats)) "wal_rotations"
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while rotations () < 3 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let reply = ask rsock (P.Rebalance { doc = "beta"; target = 0 }) in
  Atomic.set stop true;
  Thread.join writer;
  let body = ok_body reply in
  Alcotest.(check bool) "the move committed" true
    (C.kv body "from" = Some "1" && C.kv body "to" = Some "0");
  Alcotest.(check bool) "the source rotated under the writer" true
    (rotations () >= 3);
  Alcotest.(check int) "every acknowledged insert on the target"
    (3 + Atomic.get acked)
    (get_kv
       (ok_body
          (ask cfgs.(0).Service.socket_path
             (P.Count_doc { doc = "beta"; xpath = "//y" })))
       "total");
  let base = Filename.concat cfgs.(0).Service.data_dir "beta" in
  Alcotest.(check int) "target fscks clean" 0
    (Wal.exit_code
       (Wal.fsck ~xml:(base ^ ".xml") ~sidecar:(base ^ ".ruid")
          ~wal:(base ^ ".wal") ()))

(* An ADOPTed document is published as recovered, with no copy.  Holding
   the target shard's snapshot across the document's first UPDATE there,
   the held snapshot must answer exactly as before and its numbering must
   still check: the writer clones, it never writes the published copy. *)
let test_adopt_first_write_isolated () =
  with_tier ~docs:(shard_docs ()) @@ fun ~cfgs ~rcfg ~shards ~stop_shard:_ ->
  C.with_connection rcfg.Router.socket_path @@ fun c ->
  let insert_y =
    P.Update
      { doc = "beta"; op = Wal.Insert { parent_rank = 0; pos = 0; tag = "y" } }
  in
  let private_masters i =
    get_kv (ok_body (ask cfgs.(i).Service.socket_path P.Stats))
      "private_masters"
  in
  ignore (ok_body (C.request c insert_y));
  Alcotest.(check int) "the source writes on its own copy" 1
    (private_masters 1);
  ignore (ok_body (C.request c (P.Rebalance { doc = "beta"; target = 0 })));
  Alcotest.(check int) "dropping the source releases its copy" 0
    (private_masters 1);
  Alcotest.(check int) "adopted: no writer copy yet" 0 (private_masters 0);
  let held = Service.snapshot shards.(0) in
  let view () =
    let d =
      match Rserver.Snapshot.find held "beta" with
      | Some (_, d) -> d
      | None -> Alcotest.fail "beta missing from the held snapshot"
    in
    Ruid.Ruid2.check d.Rserver.Snapshot.r2;
    Bytes.to_string (Ruid.Persist.sidecar_to_bytes d.Rserver.Snapshot.r2)
    :: List.map
         (fun r -> P.response_to_string (Service.eval_read held r))
         [ P.Count "//y"; P.Query "//*";
           P.Query_doc { doc = "beta"; xpath = "//y" }; P.Check "beta" ]
  in
  let before = view () in
  let ys () =
    get_kv
      (ok_body (C.request c (P.Count_doc { doc = "beta"; xpath = "//y" })))
      "total"
  in
  let n = ys () in
  ignore (ok_body (C.request c insert_y));
  Alcotest.(check (list string)) "held snapshot unchanged by the first write"
    before (view ());
  Alcotest.(check int) "the write is visible" (n + 1) (ys ());
  Alcotest.(check int) "the target made its writer copy" 1 (private_masters 0)

(* ------------------------------------------------------------------ *)
(* Shard map                                                           *)
(* ------------------------------------------------------------------ *)

let test_shard_map () =
  let m = Shard_map.create ~shards:3 in
  Alcotest.(check int) "shards" 3 (Shard_map.shards m);
  (* the hash is a pure function of the name *)
  List.iter
    (fun name ->
      Alcotest.(check int) "stable"
        (Shard_map.hash ~shards:3 name)
        (Shard_map.place m name))
    [ "a"; "doc42"; "x/y"; "longer-name.xml" ];
  (* overrides beat the hash; assigning the hash default is dropped *)
  let name = "doc42" in
  let home = Shard_map.hash ~shards:3 name in
  let away = (home + 1) mod 3 in
  Shard_map.assign m name away;
  Alcotest.(check int) "override wins" away (Shard_map.place m name);
  Alcotest.(check int) "one override" 1 (Shard_map.overrides m);
  Shard_map.move m name home;
  Alcotest.(check int) "moving home drops the override" 0
    (Shard_map.overrides m);
  Alcotest.(check int) "back home" home (Shard_map.place m name);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Shard_map: shard 9 out of range") (fun () ->
      Shard_map.assign m name 9);
  (* doc_counts partitions exactly *)
  let names = List.init 50 (fun i -> Printf.sprintf "n%d" i) in
  let counts = Shard_map.doc_counts m ~known:names in
  Alcotest.(check int) "counts partition the names" 50
    (Array.fold_left ( + ) 0 counts)

let suite =
  [
    Alcotest.test_case "merge count" `Quick test_merge_count;
    Alcotest.test_case "merge query" `Quick test_merge_query;
    Alcotest.test_case "merge explain" `Quick test_merge_explain;
    Alcotest.test_case "merge docs" `Quick test_merge_docs;
    Alcotest.test_case "shard map" `Quick test_shard_map;
    Alcotest.test_case "scatter == merged shard replies" `Quick
      test_scatter_equivalence;
    Alcotest.test_case "scatter under a live writer" `Quick
      test_scatter_with_writer;
    Alcotest.test_case "shard down degrades to partial" `Quick
      test_shard_down_degrades;
    Alcotest.test_case "silent shard: partial within the deadline" `Quick
      test_silent_shard_deadline;
    Alcotest.test_case "fanout 1 and 2 answer the bytes of fanout 0" `Quick
      test_fanout_one_same_bytes;
    Alcotest.test_case "8 sessions scatter beside a writer" `Quick
      test_concurrent_scatters;
    Alcotest.test_case "scatter spawns no threads" `Quick
      test_scatter_spawns_no_threads;
    Alcotest.test_case "forwarding and probe-on-miss" `Quick
      test_forward_and_probe;
    Alcotest.test_case "membership through the router" `Quick
      test_membership_via_router;
    Alcotest.test_case "online rebalance" `Quick test_rebalance;
    Alcotest.test_case "rebalance while the source rotates" `Quick
      test_rebalance_under_rotation;
    Alcotest.test_case "adopted document: first write isolated" `Quick
      test_adopt_first_write_isolated;
  ]
