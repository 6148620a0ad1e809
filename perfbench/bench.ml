(* Run flow shared by the three workloads: set-up, the untraced pass that
   yields the end-to-end metrics, and — traced — a second pass on a fresh
   deployment plus the replay that yields the per-layer metrics. *)

open Perfbench_lib

type ctx = {
  ruidtool : string;
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  results : string;  (** directory for the result and span files *)
  report : Report.t;
}

(* The end-to-end metrics every workload reports (BENCHMARK.json). *)
let end_to_end =
  [ ("setup_s", "s"); ("read_p50_ms", "ms");
    ("stored_bytes_per_input_byte", "ratio"); ("peak_rss_mb", "MiB") ]

(* The per-layer metrics every traced run reports; 0 where the workload
   does not exercise the layer. *)
let per_layer =
  [ ("protocol.encode_us", "us"); ("protocol.wait_us", "us");
    ("protocol.decode_us", "us"); ("protocol.reply_bytes", "bytes");
    ("service.residual_us", "us"); ("service.queue_depth_max", "count");
    ("service.busy", "count"); ("service.dropped", "count");
    ("service.domain_busy_ms", "ms");
    ("query_cache.hit_rate", "ratio"); ("query_cache.evictions", "count");
    ("query_cache.lookup_us", "us");
    ("planner.plan_us", "us"); ("planner.plan_cache_hit_rate", "ratio");
    ("planner.chain", "count"); ("planner.twig", "count");
    ("planner.engine", "count"); ("planner.pruned", "count");
    ("exec.eval_us", "us"); ("exec.eval_p99_us", "us");
    ("exec.engine_share", "ratio"); ("exec.nodes_out", "count");
    ("snapshot.advance_us", "us"); ("snapshot.add_doc_us", "us");
    ("snapshot.publish_full", "count");
    ("snapshot.areas_rebuilt_per_batch", "count");
    ("wal.apply_us", "us"); ("wal.append_fsync_us", "us");
    ("wal.mean_batch", "count"); ("wal.bytes_per_update", "bytes");
    ("wal.rotations", "count"); ("wal.lock_wait_p99_us", "us");
    ("wal.fsync_wait_p99_us", "us");
    ("ruid2.relabels_per_update", "count"); ("ruid2.number_us", "us");
    ("stream_build.mb_s", "MB/s");
    ("persist.save_us", "us"); ("persist.bytes_per_input_byte", "ratio");
    ("router.scatter_overhead_us", "us"); ("router.merge_us", "us");
    ("router.partials", "count");
    ("replica.repl_requests_per_update", "count");
    ("replica.lag_versions_max", "count"); ("replica.reconnects", "count");
    ("loadgen.late_p99_ms", "ms"); ("loadgen.trace_overhead_pct", "%") ]

let setups_per_run = 5

let t_start = Unix.gettimeofday ()

(* Progress on stderr, stamped with seconds since start. *)
let step fmt =
  Printf.ksprintf
    (fun s -> Printf.eprintf "[%6.2fs] %s\n%!" (Unix.gettimeofday () -. t_start) s)
    fmt

let median l = Pstats.median (Array.of_list l)

(* The inputs' evaluators leave a large dead heap behind; collect it
   before anything is timed. *)
let settle () = Gc.compact ()

let record_setup ctx times =
  Report.metric ctx.report "setup_s" "s" (median times);
  Report.info ctx.report "setup_s_all"
    (Report.Arr (List.map (fun t -> Report.Num t) times))

let provenance ctx ~workload ~knobs =
  let git_rev =
    (* the checkout the benchmark runs from need not be a git repository *)
    match Sys.getenv_opt "PERFBENCH_REV" with Some r -> r | None -> "unknown"
  in
  Report.info ctx.report "provenance"
    (Report.Obj
       ([ ("workload", Report.Str workload); ("seed", Report.Int ctx.seed);
          ("seconds", Report.Int ctx.seconds);
          ("trace", Report.Bool ctx.trace);
          ("cores", Report.Int (Domain.recommended_domain_count ()));
          ("ocaml", Report.Str Sys.ocaml_version);
          ("git_rev", Report.Str git_rev) ]
       @ knobs))

(* Milliseconds the machine takes for a fixed integer loop, measured
   before the untraced pass: the host of a shared virtual machine changes
   speed over minutes, and this lets a reader of the result file tell a
   slower host from a slower program.  No metric is scaled by it. *)
let host_loop_ms () =
  let t0 = Unix.gettimeofday () in
  let x = ref 0 in
  for i = 1 to 100_000_000 do
    x := Sys.opaque_identity ((!x lxor i) * 31)
  done;
  ignore (Sys.opaque_identity !x);
  (Unix.gettimeofday () -. t0) *. 1e3

(* Run the untraced pass, recording the share of the machine's CPU time
   its host stole meanwhile: on a shared virtual machine that share moves
   every timing, and the result file keeps it beside them. *)
let measured ctx f =
  let loop_ms = host_loop_ms () in
  Report.info ctx.report "host_loop_ms" (Report.Num loop_ms);
  let s0, t0 = Proc.cpu_ticks () in
  let v = f () in
  let s1, t1 = Proc.cpu_ticks () in
  let share = if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0. in
  step "pass done; the host stole %.1f%% of CPU time meanwhile (fixed loop before: %.0f ms)"
    (share *. 100.) loop_ms;
  Report.info ctx.report "host_steal_share" (Report.Num share);
  v

let peak_rss ctx procs =
  Report.metric ctx.report "peak_rss_mb" "MiB"
    (float_of_int (List.fold_left (fun a p -> a + Proc.vm_hwm_kb p) 0 procs)
    /. 1024.)

(* ------------------------------------------------------------------ *)
(* Traced runs: per-layer metrics                                       *)
(* ------------------------------------------------------------------ *)

let layer ctx name unit_ v = Report.metric ctx.report name unit_ v

let med a = if Array.length a = 0 then 0. else Pstats.median a

let p99 a =
  match Pstats.at_most a 0.99 with
  | Some (_, v) -> v
  | None -> if Array.length a = 0 then 0. else Pstats.maximum a

let per_req selfs names kinds =
  Replay.values (Replay.per_request selfs ~names kinds)

(* Client side of the live traced pass. *)
let client_metrics ctx selfs calls ~main =
  let m name names =
    layer ctx name "us" (med (per_req selfs names main))
  in
  m "protocol.encode_us" [ "Protocol.request_to_string"; "Protocol.write_frame" ];
  m "protocol.wait_us" [ "reply wait" ];
  m "protocol.decode_us" [ "Protocol.read_frame"; "Protocol.parse_response" ];
  let bytes =
    List.filter_map
      (fun (c : Conn.call) ->
        if main c.Conn.kind then Some (float_of_int c.Conn.bytes) else None)
      calls
  in
  layer ctx "protocol.reply_bytes" "bytes" (med (Array.of_list bytes))

(* The replayed document path. *)
let document_metrics ctx selfs (built : Replay.built list) =
  let doc k = k = "DOC" in
  layer ctx "snapshot.add_doc_us" "us" (med (per_req selfs [ "Snapshot.add_doc" ] doc));
  layer ctx "persist.save_us" "us" (med (per_req selfs [ "Persist.save" ] doc));
  layer ctx "ruid2.number_us" "us" (med (per_req selfs [ "Ruid2.number" ] doc));
  let bytes = List.fold_left (fun a b -> a + b.Replay.bytes) 0 built in
  let saved = List.fold_left (fun a b -> a + b.Replay.saved_bytes) 0 built in
  let build_us =
    Array.fold_left ( +. ) 0. (per_req selfs [ "Stream_build.of_file" ] doc)
  in
  layer ctx "stream_build.mb_s" "MB/s" (float_of_int bytes /. Float.max build_us 1.);
  layer ctx "persist.bytes_per_input_byte" "ratio"
    (float_of_int saved /. float_of_int (max 1 bytes))

(* The replayed read path. *)
let read_metrics ctx selfs ~kinds =
  layer ctx "planner.plan_us" "us"
    (med (per_req selfs [ "Snapshot.parse"; "Planner.plan_for" ] kinds));
  let eval = per_req selfs [ "Snapshot.count_doc"; "Snapshot.query_doc" ] kinds in
  layer ctx "exec.eval_us" "us" (med eval);
  layer ctx "exec.eval_p99_us" "us" (p99 eval);
  layer ctx "query_cache.lookup_us" "us"
    (med
       (per_req selfs
          [ "Query_cache.normalize"; "Query_cache.find"; "Query_cache.add" ]
          kinds))

let csv_sum v =
  List.fold_left
    (fun a x -> a +. Option.value ~default:0. (float_of_string_opt x))
    0. (String.split_on_char ',' v)

(* STATS deltas over the traced pass, summed over [procs] (before, after)
   token lists, plus the maxima sampled during it. *)
let stats_metrics ctx procs =
  let d key =
    List.fold_left
      (fun a (before, after) -> a +. Drive.stat_delta ~before ~after key)
      0. procs
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  layer ctx "service.busy" "count" (d "busy");
  layer ctx "service.dropped" "count" (d "dropped_exceptions");
  layer ctx "service.domain_busy_ms" "ms"
    (List.fold_left
       (fun a (before, after) ->
         let get toks =
           Option.fold ~none:0. ~some:csv_sum (List.assoc_opt "domain_busy_ms" toks)
         in
         a +. get after -. get before)
       0. procs);
  let hits = d "cache_hits" and misses = d "cache_misses" in
  layer ctx "query_cache.hit_rate" "ratio" (ratio hits (hits +. misses));
  layer ctx "query_cache.evictions" "count" (d "cache_evictions");
  let ph = d "plan_cache_hits" and pm = d "plan_cache_misses" in
  layer ctx "planner.plan_cache_hit_rate" "ratio" (ratio ph (ph +. pm));
  let shapes = [ "chain"; "twig"; "engine"; "pruned" ] in
  List.iter (fun k -> layer ctx ("planner." ^ k) "count" (d ("planner_" ^ k))) shapes;
  layer ctx "exec.engine_share" "ratio"
    (ratio (d "planner_engine")
       (List.fold_left (fun a k -> a +. d ("planner_" ^ k)) 0. shapes));
  let batches = d "wal_batches" in
  layer ctx "wal.mean_batch" "count" (ratio (d "wal_records") batches);
  layer ctx "wal.rotations" "count" (d "wal_rotations");
  layer ctx "snapshot.publish_full" "count" (d "publish_full");
  layer ctx "snapshot.areas_rebuilt_per_batch" "count" (ratio (d "areas_rebuilt") batches);
  let group_max key =
    List.fold_left
      (fun a (_, after) -> List.fold_left Float.max a (Drive.stat_all after key))
      0. procs
    /. 1e3
  in
  layer ctx "wal.lock_wait_p99_us" "us" (group_max "lock_wait_p99_ns");
  layer ctx "wal.fsync_wait_p99_us" "us" (group_max "fsync_wait_p99_ns");
  layer ctx "router.partials" "count" (d "router_partials");
  layer ctx "replica.reconnects" "count" (d "repl_reconnects");
  let sampled key =
    List.fold_left
      (fun a (_, toks) -> Float.max a (Drive.stat_float toks key))
      0. !Conn.samples
  in
  layer ctx "service.queue_depth_max" "count" (sampled "queue_depth");
  layer ctx "replica.lag_versions_max" "count" (sampled "repl_lag_versions")

(* Layers a workload does not exercise report 0. *)
let zero_unmeasured ctx =
  List.iter
    (fun (name, unit_) ->
      if Report.find ctx.report name = None then layer ctx name unit_ 0.)
    per_layer

(* The self-time report, the layer with the most self time over the
   request kinds [traffic] (the workload's own requests: the replayed
   documents of a set-up are not traffic), tracing overhead and the
   residual the replay does not account for in the [main] kind. *)
let summarize ctx selfs ~main ~traffic ~untraced_ms ~traced_ms ~accounted =
  let rows = Replay.table selfs in
  Printf.eprintf "== self time per request kind and layer (us)\n";
  Printf.eprintf "  %-14s %-14s %8s %12s %12s %12s\n" "kind" "layer" "requests"
    "p50" "p99" "total_ms";
  List.iter
    (fun r ->
      Printf.eprintf "  %-14s %-14s %8d %12.1f %12.1f %12.1f\n" r.Replay.kind
        r.Replay.layer r.Replay.requests r.Replay.p50_us r.Replay.p99_us
        r.Replay.total_ms)
    rows;
  (* the reply wait is the server's time seen from the client, not a layer *)
  let totals = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if r.Replay.layer <> "wait" && traffic r.Replay.kind then
        Hashtbl.replace totals r.Replay.layer
          (r.Replay.total_ms
          +. Option.value ~default:0. (Hashtbl.find_opt totals r.Replay.layer)))
    rows;
  let largest, largest_ms =
    Hashtbl.fold
      (fun l t (bl, bt) -> if t > bt then (l, t) else (bl, bt))
      totals ("none", 0.)
  in
  Printf.eprintf "  largest self time: %s (%.1f ms in total)\n" largest largest_ms;
  Report.info ctx.report "largest_self_time_layer" (Report.Str largest);
  Report.info ctx.report "self_time_table"
    (Report.Arr
       (List.map
          (fun r ->
            Report.Obj
              [ ("kind", Report.Str r.Replay.kind); ("layer", Report.Str r.Replay.layer);
                ("requests", Report.Int r.Replay.requests);
                ("p50_us", Report.Num r.Replay.p50_us);
                ("p99_us", Report.Num r.Replay.p99_us);
                ("total_ms", Report.Num r.Replay.total_ms) ])
          rows));
  layer ctx "loadgen.trace_overhead_pct" "%"
    ((traced_ms -. untraced_ms) /. untraced_ms *. 100.);
  let waits = Replay.per_request selfs ~names:[ "reply wait" ] main in
  let acc =
    Hashtbl.fold
      (fun req v acc ->
        let wait = Option.value ~default:0. (Hashtbl.find_opt waits req) in
        accounted req (v -. wait) :: acc)
      (Replay.per_request selfs main) []
    |> Array.of_list
  in
  layer ctx "service.residual_us" "us" ((untraced_ms *. 1e3) -. med acc);
  Report.info ctx.report "traced_vs_untraced_p50_ms"
    (Report.Arr [ Report.Num traced_ms; Report.Num untraced_ms ])

let new_tracing () = { Conn.spans = Trace.create (); calls = Conn.recorder () }

(* The traced pass runs on a fresh deployment of its own, so it starts
   from the same state as the untraced one. *)
let traced_pass ctx ~launch ~procs ~ready ~teardown ~sockets ~run =
  step "traced pass";
  let _, d = Drive.setups ~n:1 ~launch ~procs ~ready ~teardown in
  let before = List.map Drive.stats sockets in
  let tracing = new_tracing () in
  let r = Report.create () in
  let result = run d r tracing in
  let after = List.map Drive.stats sockets in
  ctx.report.Report.attempted <- ctx.report.Report.attempted + r.Report.attempted;
  List.iter (fun f -> Report.fail ctx.report ("traced pass: " ^ f)) r.Report.failures;
  for _ = List.length r.Report.failures + 1 to r.Report.failed do
    Report.fail ctx.report "traced pass failure"
  done;
  (d, r, tracing, result, List.combine before after)

(* The document path of [docs], hosted on a scratch snapshot that is
   dropped afterwards (the numberings it returns are untouched: hosting
   clones them). *)
let replay_documents tr docs =
  let shared = Rxpath.Planner.make_shared () in
  let scratch = ref (Rserver.Snapshot.capture ~version:1 []) in
  Replay.documents tr ~dir:"replay"
    ~host:(fun name r2 ->
      scratch :=
        fst (Rserver.Snapshot.add_doc !scratch ~planner:shared ~version:2 ~name r2))
    docs

(* Every replayed reply and renumber record must equal the live one: the
   per-layer figures are only worth anything while the replay does the
   server's work.  Each comparison counts as an attempted operation, and a
   difference as a wrong answer. *)
let replay_check ctx mismatches ~ok why =
  if not ok then incr mismatches;
  Report.outcome ctx.report ~ok ~wrong:true why

let write_spans ctx tracing =
  let file =
    Filename.concat ctx.results
      (Printf.sprintf "%s-seed%d.spans.jsonl" ctx.workload ctx.seed)
  in
  Trace.write_jsonl file (Trace.spans tracing.Conn.spans)

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

let read_kind = function
  | "COUNT" | "QUERY" | "COUNTD" | "QUERYD" -> true
  | _ -> false

let ok_body (c : Conn.call) =
  match c.Conn.reply with Some (Rserver.Protocol.Ok_ b) -> Some b | _ -> None

let query ctx =
  let inp = Wquery.prepare ~seed:ctx.seed ~seconds:ctx.seconds in
  step "inputs ready (%d distinct requests)" inp.Wquery.distinct;
  settle ();
  provenance ctx ~workload:"query" ~knobs:Wquery.knobs;
  Report.info ctx.report "distinct_requests" (Report.Int inp.Wquery.distinct);
  let ready = Wquery.ready inp in
  let launch () = Wquery.launch ~ruidtool:ctx.ruidtool inp in
  let procs p = [ p ] in
  let times, p =
    Drive.setups ~n:setups_per_run ~launch ~procs ~ready ~teardown:Wquery.teardown
  in
  record_setup ctx times;
  step "deployment up";
  Report.metric ctx.report "stored_bytes_per_input_byte" "ratio"
    (float_of_int (Proc.dir_bytes Wquery.data_dir)
    /. float_of_int inp.Wquery.input_bytes);
  let pass = measured ctx (fun () -> Wquery.run_pass ctx.report inp ~tracer:None) in
  Wquery.record ctx.report pass;
  peak_rss ctx [ p ];
  Wquery.teardown p;
  if ctx.trace then begin
    let p, r, tracing, (), stats =
      traced_pass ctx ~launch ~procs ~ready ~teardown:Wquery.teardown
        ~sockets:[ Wquery.socket ]
        ~run:(fun _ r tracing ->
          Wquery.record r (Wquery.run_pass r inp ~tracer:(Some tracing)))
    in
    Wquery.teardown p;
    step "replay";
    let tr = tracing.Conn.spans in
    Proc.mkdir_p "replay";
    let built = replay_documents tr (Array.to_list inp.Wquery.docs) in
    let snap =
      Rserver.Snapshot.capture
        ~planner:(Rxpath.Planner.make_shared ~plan_cache:Wquery.plan_cache ())
        ~version:1
        (List.map (fun b -> (b.Replay.name, b.Replay.r2)) built)
    in
    let cache =
      Rserver.Query_cache.create ~max_entries:(Wquery.cache_mb * 1024)
        ~max_bytes:(Wquery.cache_mb * 1024 * 1024) ()
    in
    let calls = Conn.recorded tracing.Conn.calls in
    let mismatches = ref 0 in
    List.iter
      (fun (c : Conn.call) ->
        if read_kind c.Conn.kind then
          let body =
            Replay.read tr ~cache ~kind:c.Conn.kind ~req:c.Conn.req snap c.Conn.request
          in
          replay_check ctx mismatches ~ok:(Some body = ok_body c)
            (lazy
              (Printf.sprintf "replayed %s differs from the live reply"
                 (Rserver.Protocol.request_to_string c.Conn.request))))
      calls;
    Report.info ctx.report "replay_mismatches" (Report.Int !mismatches);
    let selfs = Trace.self_times (Trace.spans tr) in
    client_metrics ctx selfs calls ~main:read_kind;
    document_metrics ctx selfs built;
    read_metrics ctx selfs ~kinds:read_kind;
    stats_metrics ctx stats;
    let totals =
      List.filter_map
        (fun c ->
          if read_kind c.Conn.kind then
            Option.bind (ok_body c) (fun b -> Conn.kv_int b "total")
          else None)
        calls
    in
    layer ctx "exec.nodes_out" "count"
      (Pstats.mean (Array.of_list (List.map float_of_int totals)));
    summarize ctx selfs ~main:read_kind ~traffic:read_kind
      ~untraced_ms:(Option.value ~default:nan (Report.find ctx.report "read_p50_ms"))
      ~traced_ms:(Option.value ~default:nan (Report.find r "read_p50_ms"))
      ~accounted:(fun _ us -> us);
    write_spans ctx tracing;
    zero_unmeasured ctx
  end

(* ------------------------------------------------------------------ *)
(* update                                                              *)
(* ------------------------------------------------------------------ *)

let update ctx =
  let inp = Wupdate.prepare ~seed:ctx.seed ~seconds:ctx.seconds in
  step "inputs ready";
  settle ();
  provenance ctx ~workload:"update" ~knobs:Wupdate.knobs;
  let ready = Wupdate.ready inp in
  let launch () = Wupdate.launch ~ruidtool:ctx.ruidtool inp in
  let times, d =
    Drive.setups ~n:setups_per_run ~launch ~procs:Wupdate.procs ~ready
      ~teardown:Wupdate.teardown
  in
  record_setup ctx times;
  step "deployment up";
  let pass = measured ctx (fun () -> Wupdate.run_pass ctx.report inp ~tracer:None) in
  Wupdate.final_checks ctx.report inp pass;
  step "final checks done";
  Wupdate.record ctx.report inp pass;
  peak_rss ctx (Wupdate.procs d);
  Wupdate.teardown d;
  if ctx.trace then begin
    let d, r, tracing, pass, stats =
      traced_pass ctx ~launch ~procs:Wupdate.procs ~ready ~teardown:Wupdate.teardown
        ~sockets:[ Wupdate.primary_socket; Wupdate.follower_socket ]
        ~run:(fun _ r tracing ->
          let pass = Wupdate.run_pass r inp ~tracer:(Some tracing) in
          Wupdate.final_checks r inp pass;
          Wupdate.record r inp pass;
          pass)
    in
    Wupdate.teardown d;
    step "replay";
    let tr = tracing.Conn.spans in
    Proc.mkdir_p "replay";
    let built = replay_documents tr (Array.to_list inp.Wupdate.docs) in
    (* the replayed documents become the write path's masters *)
    let masters =
      Array.of_list
        (List.mapi
           (fun idx (b : Replay.built) ->
             { Replay.idx; r2 = b.Replay.r2; wal = b.Replay.wal; seq = 0 })
           built)
    in
    let snap =
      ref
        (Rserver.Snapshot.capture ~planner:(Rxpath.Planner.make_shared ()) ~version:1
           (Array.to_list
              (Array.mapi (fun i w -> (Wupdate.names.(i), w.Replay.r2)) masters)))
    in
    let calls = Conn.recorded tracing.Conn.calls in
    let acked =
      List.filter_map
        (fun (c : Conn.call) ->
          match c.Conn.request, ok_body c with
          | Rserver.Protocol.Update { doc; op }, Some b when c.Conn.kind = "UPDATE" ->
            Some (c, doc, op, b)
          | _ -> None)
        calls
      |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a.Conn.replied b.Conn.replied)
    in
    let mismatches = ref 0 in
    List.iter
      (fun ((c : Conn.call), doc, op, body) ->
        let idx = ref 0 in
        Array.iteri (fun i n -> if n = doc then idx := i) Wupdate.names;
        let version = Option.value ~default:0 (Conn.kv_int body "v") in
        let next, area, changed =
          Replay.update tr ~req:c.Conn.req !snap masters.(!idx) ~version op
        in
        snap := next;
        replay_check ctx mismatches
          ~ok:(Conn.kv_int body "area" = Some area
               && Conn.kv_int body "changed" = Some changed)
          (lazy
            (Printf.sprintf "replayed UPDATE %s renumbered area=%d changed=%d, live: %s"
               doc area changed body)))
      acked;
    let n_updates = List.length acked in
    (* follower reads, replayed over the final snapshot *)
    List.iter
      (fun (c : Conn.call) ->
        if c.Conn.path = Wupdate.follower_socket && read_kind c.Conn.kind then
          ignore (Replay.read tr ~kind:c.Conn.kind ~req:c.Conn.req !snap c.Conn.request))
      calls;
    Report.info ctx.report "replay_mismatches" (Report.Int !mismatches);
    let selfs = Trace.self_times (Trace.spans tr) in
    let upd k = k = "UPDATE" in
    client_metrics ctx selfs calls ~main:upd;
    document_metrics ctx selfs built;
    read_metrics ctx selfs ~kinds:read_kind;
    stats_metrics ctx stats;
    let m name names =
      layer ctx name "us" (med (per_req selfs names upd))
    in
    m "wal.apply_us" [ "Wal.apply" ];
    m "wal.append_fsync_us" [ "Wal.append_batch" ];
    m "snapshot.advance_us" [ "Snapshot.advance" ];
    let journal =
      Array.fold_left
        (fun a (d : Inputs.doc_file) ->
          a + Proc.file_bytes (Filename.concat "replay" (d.Inputs.name ^ ".wal"))
          - Rstorage.Wal.header_length)
        0 inp.Wupdate.docs
    in
    layer ctx "wal.bytes_per_update" "bytes"
      (float_of_int journal /. float_of_int (max 1 n_updates));
    let changed = Array.of_list (List.map float_of_int pass.Wupdate.log.Wupdate.changed) in
    layer ctx "ruid2.relabels_per_update" "count" (Pstats.mean changed);
    let primary_served =
      match stats with
      | (before, after) :: _ -> Drive.stat_delta ~before ~after "repl_served_requests"
      | [] -> 0.
    in
    (* every UPDATE of the pass, the untraced closed-loop ones included *)
    layer ctx "replica.repl_requests_per_update" "count"
      (primary_served
      /. float_of_int (max 1 (List.length pass.Wupdate.log.Wupdate.changed)));
    let totals =
      List.filter_map
        (fun c ->
          if read_kind c.Conn.kind then
            Option.bind (ok_body c) (fun b -> Conn.kv_int b "total")
          else None)
        calls
    in
    layer ctx "exec.nodes_out" "count"
      (Pstats.mean (Array.of_list (List.map float_of_int totals)));
    summarize ctx selfs ~main:upd ~traffic:(fun k -> upd k || read_kind k)
      ~untraced_ms:(Option.value ~default:nan (Report.find ctx.report "update_p50_ms"))
      ~traced_ms:(Option.value ~default:nan (Report.find r "update_p50_ms"))
      ~accounted:(fun _ us -> us);
    write_spans ctx tracing;
    zero_unmeasured ctx
  end

(* ------------------------------------------------------------------ *)
(* ingest                                                              *)
(* ------------------------------------------------------------------ *)

let ingest ctx =
  let inp = Wingest.prepare ~seed:ctx.seed ~seconds:ctx.seconds in
  step "inputs ready (%d documents, %d bytes)"
    (Array.length inp.Wingest.corpus) inp.Wingest.corpus_bytes;
  settle ();
  provenance ctx ~workload:"ingest" ~knobs:Wingest.knobs;
  let launch () = Wingest.launch ~ruidtool:ctx.ruidtool inp in
  let ready = Wingest.ready inp in
  let times, d =
    Drive.setups ~n:setups_per_run ~launch ~procs:Wingest.procs ~ready
      ~teardown:Wingest.teardown
  in
  record_setup ctx times;
  step "deployment up";
  let pass = measured ctx (fun () -> Wingest.run_pass ctx.report inp ~tracer:None) in
  Wingest.final_checks ctx.report inp;
  Wingest.record ctx.report inp pass;
  peak_rss ctx (Wingest.procs d);
  Wingest.teardown d;
  if ctx.trace then begin
    let sockets =
      Wingest.router_socket
      :: List.init Wingest.shards Wingest.shard_socket
    in
    let d, r, tracing, pass, stats =
      traced_pass ctx ~launch ~procs:Wingest.procs ~ready
        ~teardown:Wingest.teardown ~sockets
        ~run:(fun _ r tracing ->
          let pass = Wingest.run_pass r inp ~tracer:(Some tracing) in
          Wingest.record r inp pass;
          pass)
    in
    Wingest.teardown d;
    step "replay";
    let tr = tracing.Conn.spans in
    Proc.mkdir_p "replay";
    let shared = Array.init Wingest.shards (fun _ -> Rxpath.Planner.make_shared ()) in
    (* each shard's start-up snapshot holds its boot documents at version 1 *)
    let boot =
      Array.map (fun files -> replay_documents tr (Array.to_list files)) inp.Wingest.boot
    in
    let shard_snaps =
      Array.mapi
        (fun i built ->
          Rserver.Snapshot.capture ~planner:shared.(i) ~version:1
            (List.map (fun b -> (b.Replay.name, b.Replay.r2)) built))
        boot
    in
    let order =
      List.sort (fun (_, _, a) (_, _, b) -> compare a b) pass.Wingest.doc_acks
      |> List.map (fun (name, _, _) ->
             List.find (fun (f : Inputs.doc_file) -> f.Inputs.name = name)
               (Array.to_list inp.Wingest.corpus))
    in
    let built =
      Replay.documents tr ~dir:"replay"
        ~host:(fun name r2 ->
          let i = Rserver.Shard_map.hash ~shards:Wingest.shards name in
          let s = shard_snaps.(i) in
          shard_snaps.(i) <-
            fst
              (Rserver.Snapshot.add_doc s ~planner:shared.(i)
                 ~version:(s.Rserver.Snapshot.version + 1) ~name r2))
        order
      @ List.concat (Array.to_list boot)
    in
    let calls = Conn.recorded tracing.Conn.calls in
    let scatter k = k = "COUNT" || k = "QUERY" in
    let routed =
      List.filter
        (fun (c : Conn.call) -> c.Conn.path = Wingest.router_socket && scatter c.Conn.kind)
        calls
    in
    let faster_shard = Hashtbl.create 1024 in
    let mismatches = ref 0 in
    List.iter
      (fun (c : Conn.call) ->
        let kind = c.Conn.kind and req = c.Conn.req in
        let body =
          Replay.span tr ~kind ~req "scatter" "service" @@ fun root ->
          let parts =
            Array.to_list
              (Array.mapi
                 (fun i snap ->
                   let t0 = Unix.gettimeofday () in
                   let b = Replay.read tr ~parent:root ~kind ~req snap c.Conn.request in
                   ((i, b), Unix.gettimeofday () -. t0))
                 shard_snaps)
          in
          Hashtbl.replace faster_shard req
            (List.fold_left (fun a (_, t) -> Float.min a t) infinity parts);
          let replies = List.map fst parts in
          let merge =
            if kind = "COUNT" then Rserver.Router.merge_count
            else Rserver.Router.merge_query
          in
          Replay.span tr ~parent:root ~kind ~req
            (if kind = "COUNT" then "Router.merge_count" else "Router.merge_query")
            "router" (fun _ -> merge ~shards:Wingest.shards ~replies ~missing:[])
        in
        replay_check ctx mismatches ~ok:(Some body = ok_body c)
          (lazy
            (Printf.sprintf "replayed scatter %s differs from the live reply"
               (Rserver.Protocol.request_to_string c.Conn.request))))
      routed;
    Report.info ctx.report "replay_mismatches" (Report.Int !mismatches);
    let selfs = Trace.self_times (Trace.spans tr) in
    client_metrics ctx selfs calls ~main:scatter;
    document_metrics ctx selfs built;
    read_metrics ctx selfs ~kinds:scatter;
    stats_metrics ctx stats;
    layer ctx "router.merge_us" "us"
      (med (per_req selfs [ "Router.merge_count"; "Router.merge_query" ] scatter));
    (* the router's own cost: a routed call minus the slower direct call *)
    let direct = Hashtbl.create 1024 in
    List.iter
      (fun (c : Conn.call) ->
        if c.Conn.kind = Wingest.direct_kind "COUNT" || c.Conn.kind = Wingest.direct_kind "QUERY"
        then
          Hashtbl.replace direct c.Conn.req
            (Float.max (c.Conn.replied -. c.Conn.sent)
               (Option.value ~default:0. (Hashtbl.find_opt direct c.Conn.req))))
      calls;
    let overhead =
      List.filter_map
        (fun (c : Conn.call) ->
          Option.map
            (fun slowest -> (c.Conn.replied -. c.Conn.sent -. slowest) *. 1e6)
            (Hashtbl.find_opt direct c.Conn.req))
        routed
    in
    layer ctx "router.scatter_overhead_us" "us" (med (Array.of_list overhead));
    let totals =
      List.filter_map
        (fun c -> Option.bind (ok_body c) (fun b -> Conn.kv_int b "total"))
        routed
    in
    layer ctx "exec.nodes_out" "count"
      (Pstats.mean (Array.of_list (List.map float_of_int totals)));
    summarize ctx selfs ~main:scatter ~traffic:(fun k -> scatter k || k = "DOC")
      ~untraced_ms:(Option.value ~default:nan (Report.find ctx.report "read_p50_ms"))
      ~traced_ms:(Option.value ~default:nan (Report.find r "read_p50_ms"))
      ~accounted:(fun req us ->
        (* the shards answer in parallel: only the slower one blocks *)
        us -. (1e6 *. Option.value ~default:0. (Hashtbl.find_opt faster_shard req)));
    write_spans ctx tracing;
    zero_unmeasured ctx
  end

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

let finish ?(dead = false) ctx =
  let r = ctx.report in
  Report.metric r "error_rate" "fraction" (Report.error_rate r);
  let names = if ctx.trace then per_layer else end_to_end in
  let complete = List.for_all (fun (n, _) -> Report.find r n <> None) names in
  let correct = (not dead) && r.Report.failed = 0 && complete in
  Report.print_report r
    ~title:(if ctx.trace then "traced run" else "untraced run");
  if not complete then
    prerr_endline "loadgen: some metrics could not be measured";
  let file =
    Filename.concat ctx.results
      (Printf.sprintf "%s-seed%d-trace%d.json" ctx.workload ctx.seed
         (if ctx.trace then 1 else 0))
  in
  Inputs.write_file file (Report.to_string (Report.full_json ~correct r) ^ "\n");
  step "results written to %s" file;
  print_endline (Report.result_line ~correct ~names r);
  if correct then 0 else 1
