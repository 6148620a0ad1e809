(* E17 — The replication tier: catch-up throughput, steady-state lag,
   failover time.

   Three measurements over an in-process primary + replica pair:

   - {b catch-up}: a primary accumulates a journal; a fresh replica
     bootstraps and drains it.  Reported as journal bytes (and versions)
     per second from replica start to convergence.
   - {b steady-state lag}: a writer applies updates one at a time; after
     each acknowledged UPDATE the driver polls the replica until the new
     version is visible there.  The ack-to-visible gap is the replication
     lag a reader of the replica actually experiences (it includes the
     WAIT long-poll round trip, so poll-ms bounds it from below).
   - {b failover}: the primary stops; the clock runs from the moment the
     PROMOTE request is sent to the replica until a first QUERY has been
     served by the promoted node.
   - {b catch-up across rotations}: a follower is stopped while its
     primary rotates the journal k = 1, 4 and 16 times, then restarted
     over its own data directory.  Reported per k: the time from restart
     to convergence, the bytes the follower fetched (the primary's served
     bytes over the catch-up) and the primary's journal-family bytes for
     the document (active segment, checkpoint pairs, archives).

   Raw numbers go to BENCH_repl.json; the CI replication job uploads that
   file as an artifact. *)

module Service = Rserver.Service
module Client = Rserver.Client
module Protocol = Rserver.Protocol
module Snapshot = Rserver.Snapshot

let workdir () = Report.workdir "e17"

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let service_config tag =
  {
    Service.socket_path = Filename.concat (workdir ()) (tag ^ ".sock");
    data_dir = Filename.concat (workdir ()) tag;
    workers = 2;
    max_queue = 16;
    deadline_ms = 0;
    max_area_size = 64;
    max_depth = 10_000;
    domains = 0;
    cache_mb = 0;
    commit_interval_us = 0;
    commit_max_batch = 64;
    commit_groups = 1;
    wal_segment_bytes = 0;
    plan_cache = 256;
    epoch = 1;
    upstream = None;
    poll_ms = 500;
  }

(* A follower is a service with an upstream. *)
let replica_config ~primary tag =
  { (service_config tag) with
    Service.upstream = Some primary; poll_ms = 25 }

let wait_for_version r v =
  while (Service.snapshot r).Snapshot.version < v do
    Thread.delay 0.001
  done

let insert i =
  Rstorage.Wal.Insert { parent_rank = 0; pos = 0; tag = Printf.sprintf "m%d" i }

let stats_int sock key =
  Client.with_connection sock @@ fun c ->
  match Client.request c Protocol.Stats with
  | Protocol.Ok_ body -> Option.value ~default:0 (Client.kv_int body key)
  | r -> failwith ("E17 STATS: " ^ Protocol.response_to_string r)

(* (generation, active journal bytes) of [doc] from REPL STATE. *)
let journal_state sock doc =
  Client.with_connection sock @@ fun c ->
  match Client.request c Protocol.Repl_state with
  | Protocol.Ok_ body -> (
    match Rserver.Replication.decode_state body with
    | Ok st ->
      let d =
        List.find
          (fun d -> d.Rserver.Replication.name = doc)
          st.Rserver.Replication.s_docs
      in
      (d.Rserver.Replication.gen, d.Rserver.Replication.size)
    | Error why -> failwith ("E17 REPL STATE: " ^ why))
  | r -> failwith ("E17 REPL STATE: " ^ Protocol.response_to_string r)

let segment_bytes = 1024

type rotation_catchup = {
  k : int;
  seconds : float;
  fetched_bytes : int;
  family_bytes : int;
}

(* One k: primary and follower in step, the follower stops, the primary
   rotates exactly k times (a write that fills the segment waits for its
   rotation, which runs after the acks), the follower restarts. *)
let rotation_catchup root k =
  let tag = Printf.sprintf "e17k%d" k in
  let pcfg =
    { (service_config (tag ^ "p")) with
      Service.wal_segment_bytes = segment_bytes }
  in
  let psock = pcfg.Service.socket_path in
  let srv = Service.start pcfg [ ("bench", Rxml.Dom.clone root) ] in
  let next = ref 0 in
  let write c =
    incr next;
    match
      Client.request c (Protocol.Update { doc = "bench"; op = insert !next })
    with
    | Protocol.Ok_ _ -> ()
    | r -> failwith ("E17 rotation write: " ^ Protocol.response_to_string r)
  in
  Client.with_connection psock (fun c ->
      for _ = 1 to 10 do
        write c
      done);
  let rcfg = replica_config ~primary:psock (tag ^ "r") in
  let rep = Service.start rcfg [] in
  wait_for_version rep (1 + !next);
  Service.stop rep;
  let g0, _ = journal_state psock "bench" in
  (Client.with_connection psock @@ fun c ->
   let rec go () =
     let g, size = journal_state psock "bench" in
     if size >= segment_bytes then begin
       Thread.delay 0.001;
       go ()
     end
     else if g < g0 + k then begin
       write c;
       go ()
     end
   in
   go ());
  let served0 = stats_int psock "repl_served_bytes" in
  let t0 = Unix.gettimeofday () in
  let rep = Service.start rcfg [] in
  (* caught up = every record applied AND the live generation mirrored:
     the last records can arrive before the last checkpoint pair *)
  let live_gen = fst (journal_state psock "bench") in
  wait_for_version rep (1 + !next);
  while fst (journal_state rcfg.Service.socket_path "bench") < live_gen do
    Thread.delay 0.001
  done;
  let seconds = Unix.gettimeofday () -. t0 in
  let fetched_bytes = stats_int psock "repl_served_bytes" - served0 in
  (* the primary is quiescent by now: no rotation still trimming *)
  let family_bytes =
    List.fold_left
      (fun acc (_, p) -> acc + (Unix.stat p).Unix.st_size)
      0
      (Rstorage.Wal.family (Filename.concat pcfg.Service.data_dir "bench.wal"))
  in
  Service.stop rep;
  Service.stop srv;
  { k; seconds; fetched_bytes; family_bytes }

let run () =
  Report.section
    "E17  Replication: catch-up throughput, steady-state lag, failover time";
  let root =
    Rworkload.Shape.generate ~seed:171 ~target:2000
      (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 4 })
  in

  (* --- catch-up: bootstrap + drain an accumulated journal ----------- *)
  let backlog = 600 in
  let pcfg = service_config "e17p" in
  let srv = Service.start pcfg [ ("bench", Rxml.Dom.clone root) ] in
  (Client.with_connection pcfg.Service.socket_path @@ fun c ->
   for i = 1 to backlog do
     match Client.request c (Protocol.Update { doc = "bench"; op = insert i }) with
     | Protocol.Ok_ _ -> ()
     | r -> failwith ("E17 backlog write: " ^ Protocol.response_to_string r)
   done);
  let wal_bytes =
    (Unix.stat (Filename.concat pcfg.Service.data_dir "bench.wal")).Unix.st_size
  in
  let target_v = 1 + backlog in
  let t0 = Unix.gettimeofday () in
  let rcfg = replica_config ~primary:pcfg.Service.socket_path "e17r" in
  let rep = Service.start rcfg [] in
  wait_for_version rep target_v;
  let catchup_s = Unix.gettimeofday () -. t0 in
  let catchup_bps = float_of_int wal_bytes /. catchup_s in
  let catchup_vps = float_of_int backlog /. catchup_s in

  (* --- steady-state lag: ack-to-visible per update ------------------ *)
  let samples = 200 in
  let lags =
    Client.with_connection pcfg.Service.socket_path @@ fun c ->
    Array.init samples (fun i ->
        let resp =
          Client.request c
            (Protocol.Update { doc = "bench"; op = insert (backlog + i + 1) })
        in
        let acked = Unix.gettimeofday () in
        match resp with
        | Protocol.Ok_ body ->
          let v =
            match Client.kv_int body "v" with
            | Some v -> v
            | None -> failwith "UPDATE reply lacks v="
          in
          wait_for_version rep v;
          Unix.gettimeofday () -. acked
        | r -> failwith ("E17 lag write: " ^ Protocol.response_to_string r))
  in
  let sorted = Array.copy lags in
  Array.sort compare sorted;
  let lag_p50 = percentile sorted 0.50 and lag_p99 = percentile sorted 0.99 in

  (* --- failover: PROMOTE until the first served read ---------------- *)
  Service.stop srv;
  let t1 = Unix.gettimeofday () in
  let first_read_s =
    Client.with_connection rcfg.Service.socket_path @@ fun c ->
    (match Client.request c Protocol.Promote with
    | Protocol.Ok_ _ -> ()
    | r -> failwith ("E17 PROMOTE: " ^ Protocol.response_to_string r));
    match Client.request c (Protocol.Count "//m1") with
    | Protocol.Ok_ _ -> Unix.gettimeofday () -. t1
    | r -> failwith ("E17 failover read: " ^ Protocol.response_to_string r)
  in
  Service.stop rep;

  (* --- catch-up across rotations ------------------------------------ *)
  let rotations = List.map (rotation_catchup root) [ 1; 4; 16 ] in

  Report.table
    [ "metric"; "value" ]
    [
      [ "catch-up journal"; Printf.sprintf "%d B / %d versions" wal_bytes backlog ];
      [ "catch-up time"; Printf.sprintf "%.3f s" catchup_s ];
      [ "catch-up throughput";
        Printf.sprintf "%.0f B/s, %.0f versions/s" catchup_bps catchup_vps ];
      [ "replication lag p50"; Printf.sprintf "%.1f ms" (lag_p50 *. 1e3) ];
      [ "replication lag p99"; Printf.sprintf "%.1f ms" (lag_p99 *. 1e3) ];
      [ "failover to first read"; Printf.sprintf "%.1f ms" (first_read_s *. 1e3) ];
    ];
  Report.note
    "lag is ack-to-visible from a reader's seat: it includes the replica's";
  Report.note
    "WAIT long-poll round trip, so poll-ms (25 here) is its natural floor.";
  Report.subsection
    (Printf.sprintf
       "follower restarted after k rotations (segment %d B, %d-node document)"
       segment_bytes (Rxml.Dom.size root));
  Report.table
    [ "k"; "catch-up"; "fetched"; "primary family" ]
    (List.map
       (fun r ->
         [ string_of_int r.k; Printf.sprintf "%.1f ms" (r.seconds *. 1e3);
           Printf.sprintf "%d B" r.fetched_bytes;
           Printf.sprintf "%d B" r.family_bytes ])
       rotations);
  let oc = open_out "BENCH_repl.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"E17\",\n\
     %s,\n\
    \  \"catchup\": {\"journal_bytes\": %d, \"versions\": %d, \"seconds\": \
     %.4f, \"bytes_per_s\": %.1f, \"versions_per_s\": %.1f},\n\
    \  \"lag\": {\"samples\": %d, \"p50_ms\": %.3f, \"p99_ms\": %.3f},\n\
    \  \"failover\": {\"to_first_read_ms\": %.3f},\n\
    \  \"rotation_catchup\": {\"segment_bytes\": %d, \"runs\": [%s]}\n\
     }\n"
    (Report.meta_json ()) wal_bytes backlog catchup_s catchup_bps catchup_vps
    samples (lag_p50 *. 1e3) (lag_p99 *. 1e3)
    (first_read_s *. 1e3) segment_bytes
    (String.concat ", "
       (List.map
          (fun r ->
            Printf.sprintf
              "{\"k\": %d, \"catchup_ms\": %.3f, \"fetched_bytes\": %d, \
               \"family_bytes\": %d}"
              r.k (r.seconds *. 1e3) r.fetched_bytes r.family_bytes)
          rotations));
  close_out oc;
  Report.note "wrote BENCH_repl.json"
