(* Workload [update]: a primary [serve] plus one [replica] following it,
   hosting eight XMark documents of about 2k nodes.

   Connection A sends UPDATEs to the primary: [<bid>] leaves inserted
   under Zipf-hot parents of Zipf-chosen documents, each document's size
   held stationary by its update script ({!Perfbench_lib.Upscript}).
   Connection B sends cheap COUNTD/QUERYD reads, [//bid] among them, to
   the follower.  The WAL, Ruid2 renumbering, Snapshot publication and
   Replica catch-up do the work, and reads run beside writes on snapshots
   that change under them; the result cache is unused (the follower has
   none) and planning is light.  The primary rotates its journals often
   enough that every document rotates several times per run.  Capacity
   comes last: UPDATEs closed loop on the primary, then, once the follower
   has caught up, follower reads closed loop on both connections. *)

open Perfbench_lib
module P = Rserver.Protocol
module Rng = Rworkload.Rng

let n_docs = 8
let doc_size = 1000 (* XMark generator units: about 2.1k nodes *)
let names = Array.init n_docs (Printf.sprintf "ledger%d")

(* Deployment knobs. *)
let workers = 2
let wal_segment_bytes = 256
let poll_ms = 500

let knobs =
  Report.
    [ ("serve.workers", Int workers); ("serve.domains", Int 0);
      ("serve.cache_mb", Int 0); ("serve.commit_batch", Int 64);
      ("serve.commit_groups", Str "auto (1)");
      ("serve.wal_segment_bytes", Int wal_segment_bytes);
      ("replica.workers", Int workers); ("replica.poll_ms", Int poll_ms);
      ("flush", Str "fsync per commit batch") ]

(* Traffic. *)
let update_rate = 40. (* UPDATEs/s on connection A, open loop *)
let read_rate = 100. (* follower reads/s on connection B, open loop *)
let warmup_s = 1.0

(* Time split: 70% in fixed-rate sub-phases, then 10% sending UPDATEs
   closed loop for update capacity, then 20% reading the follower closed
   loop on both connections for read capacity.  The capacity reads start
   once the follower has caught up, so they time its read path rather
   than whichever burst of replication shares the machine with them: the
   follower long-polls one document at a time and backs off after a
   failed fetch, so its apply work comes in bursts. *)
let open_share = 0.7
let burst_share = 0.1
let window = 32 (* live [<bid>] leaves per document at steady state *)
let zipf_s = 1.0

(* Prepared closed-loop updates per second, and reads per second and
   connection: above the fastest rates seen on a 2-core machine (316
   UPDATEs/s; 16,000 follower reads/s on one connection).  A phase that
   runs out ends early, counting what it did. *)
let closed_updates_per_s = 600
let closed_reads_per_s = 20000

let follower_queries =
  [| "//bid"; "//item/name"; "//person[creditcard]/name";
     "//open_auction/bidder/increase"; "/site/regions/africa/item" |]

type fread = { read : Inputs.read; doc : int; bid : bool }

type inputs = {
  docs : Inputs.doc_file array;
  input_bytes : int;
  scripts : Upscript.t array;
  upd : int array array;  (** documents of the warm-up, open, closed updates *)
  reads : fread array array;
      (** follower reads: warm-up, open, then closed on each connection *)
  open_s : float;  (** fixed-rate sub-phase, per cycle *)
  burst_s : float;  (** closed-loop UPDATEs *)
  closed_s : float;  (** closed-loop read sub-phase, per cycle *)
}

let prepare ~seed ~seconds =
  Proc.mkdir_p "inputs";
  let docs =
    Array.init n_docs (fun i ->
        Inputs.materialize ~dir:"inputs" ~name:names.(i)
          (Inputs.xmark ~seed:((seed * 131) + i) ~size:doc_size))
  in
  let s = float_of_int seconds in
  let k = float_of_int Drive.cycles in
  let open_s = s *. open_share /. k
  and burst_s = s *. burst_share
  and closed_s = s *. (1. -. open_share -. burst_share) /. k in
  let rng = Rng.create (seed * 17) in
  let order = Array.init n_docs Fun.id in
  Rng.shuffle rng order;
  let pick_doc rng = order.(Rng.zipf rng ~s:zipf_s ~n:n_docs - 1) in
  let n_of secs rate =
    int_of_float (Float.ceil (secs *. rate)) + (2 * Drive.cycles) + 1
  in
  let upd =
    Array.map
      (fun n -> Array.init n (fun _ -> pick_doc rng))
      [| n_of warmup_s update_rate; n_of (open_s *. k) update_rate;
         int_of_float (burst_s *. float_of_int closed_updates_per_s) |]
  in
  let per_doc = Array.make n_docs 0 in
  Array.iter (Array.iter (fun d -> per_doc.(d) <- per_doc.(d) + 1)) upd;
  let scripts =
    Array.mapi
      (fun i d ->
        Upscript.generate ~seed:((seed * 31) + i) ~window ~n:per_doc.(i)
          (Inputs.parse d.Inputs.path))
      docs
  in
  let evs = Array.map (fun d -> Inputs.evaluator_of_file d.Inputs.path) docs in
  let static =
    Array.map
      (fun ev -> Array.map (fun q -> if q = "//bid" then 0 else Inputs.count ev q) follower_queries)
      evs
  in
  let closed_n = int_of_float (closed_s *. k *. float_of_int closed_reads_per_s) in
  let reads =
    Array.map
      (fun n ->
        Array.init n (fun _ ->
            let doc = Rng.int rng n_docs in
            let q = Rng.int rng (Array.length follower_queries) in
            let request, kind =
              Inputs.read_request ~doc:(Some names.(doc))
                ~query_verb:(if Rng.bool rng then `Count else `Query)
                follower_queries.(q)
            in
            { read = { Inputs.request; kind; expect = static.(doc).(q) };
              doc; bid = follower_queries.(q) = "//bid" }))
      [| n_of warmup_s read_rate; n_of (open_s *. k) read_rate; closed_n; closed_n |]
  in
  {
    docs;
    input_bytes = Array.fold_left (fun a d -> a + d.Inputs.bytes) 0 docs;
    scripts; upd; reads; open_s; burst_s; closed_s;
  }

(* ------------------------------------------------------------------ *)
(* Deployment                                                           *)
(* ------------------------------------------------------------------ *)

let primary_socket = "primary.sock"
let follower_socket = "follower.sock"
let primary_dir = "primary-data"
let follower_dir = "follower-data"

type deployment = { primary : Proc.t; follower : Proc.t }

let ready_query = P.Count "//item/name"

let launch ~ruidtool inp =
  Proc.rm_rf primary_dir;
  Proc.rm_rf follower_dir;
  let primary =
    Proc.spawn ~ruidtool ~name:"primary" ~socket:primary_socket
      ([ "serve"; "--socket"; primary_socket; "--data-dir"; primary_dir;
         "--workers"; string_of_int workers;
         "--wal-segment-bytes"; string_of_int wal_segment_bytes ]
      @ Array.to_list (Array.map (fun d -> d.Inputs.path) inp.docs))
  in
  (* the replica needs a primary to bootstrap from *)
  Drive.wait_ready ~procs:[ primary ] (fun () ->
      Drive.once_ok ~timeout_ms:2_000 primary_socket ready_query <> None);
  let follower =
    Proc.spawn ~ruidtool ~name:"follower" ~socket:follower_socket
      [ "replica"; "--socket"; follower_socket; "--primary"; primary_socket;
        "--data-dir"; follower_dir; "--workers"; string_of_int workers;
        "--poll-ms"; string_of_int poll_ms ]
  in
  { primary; follower }

let procs d = [ d.primary; d.follower ]

(* Ready: the primary answers over every document, and the follower's
   answer is byte-identical to it. *)
let ready inp =
  let q = match ready_query with P.Count q -> q | _ -> assert false in
  let expect =
    Array.fold_left
      (fun acc d -> acc + Inputs.count (Inputs.evaluator_of_file d.Inputs.path) q)
      0 inp.docs
  in
  fun (_ : deployment) ->
    match Drive.once_ok ~timeout_ms:2_000 primary_socket ready_query with
    | Some body
      when Conn.kv_int body "total" = Some expect
           && Array.for_all (fun n -> Conn.kv body n <> None) names ->
      Drive.once_ok ~timeout_ms:2_000 follower_socket ready_query = Some body
    | _ -> false

let teardown d =
  Proc.stop d.follower;
  Proc.stop d.primary;
  Proc.rm_rf primary_dir;
  Proc.rm_rf follower_dir

(* ------------------------------------------------------------------ *)
(* One pass                                                            *)
(* ------------------------------------------------------------------ *)

let timeout_ms = 10_000

type log = {
  mutable acks : (int * float) list;  (** open phase: (v, ack time) *)
  mutable changed : int list;  (** [changed=] of every ack *)
  mutable freplies : (float * int) list;
      (** open phase: follower (reply time, v) *)
}

type pass = {
  upd_open : Drive.open_result Drive.sub list;  (** per fixed-rate sub-phase *)
  read_open : Drive.open_result Drive.sub list;  (** per fixed-rate sub-phase *)
  upd_closed : Drive.closed_result list Drive.sub;
  read_closed : Drive.closed_result list Drive.sub list;
      (** per closed-loop sub-phase *)
  log : log;
  applied : int array;  (** acknowledged script prefix per document *)
  bytes_after_open : int;
}

let catch_up_deadline = 30.

let version socket =
  Option.bind (Drive.once_ok socket (P.Count "//bid")) (fun b -> Conn.kv_int b "v")

(* Wait until the follower's version reaches the primary's. *)
let catch_up report =
  let target = version primary_socket in
  let deadline = Unix.gettimeofday () +. catch_up_deadline in
  let rec wait () =
    let v = version follower_socket in
    if v = target && v <> None then true
    else if Unix.gettimeofday () > deadline then false
    else (Unix.sleepf 0.01; wait ())
  in
  Report.outcome report ~ok:(wait ())
    (lazy (Printf.sprintf "follower did not catch up to v=%s"
             (match target with Some v -> string_of_int v | None -> "?")))

let run_pass report inp ~tracer =
  (* closed-loop requests are never traced: thousands of them would add
     nothing to the per-layer split of the fixed-rate ones *)
  let ca = Conn.create ?tracer ~timeout_ms primary_socket
  and cb = Conn.create ?tracer ~timeout_ms follower_socket in
  let next = Array.make n_docs 0 in
  (* UPDATEs sent per document, read by connection B's [//bid] check *)
  let issued = Array.init n_docs (fun _ -> Atomic.make 0) in
  let log = { acks = []; changed = []; freplies = [] } in
  let last_v_a = ref 0 in
  (* lag is matched over the fixed-rate sub-phases only *)
  let in_open = Atomic.make false in
  let exec_update ca docs base i =
    let doc = docs.(i) in
    let k = next.(doc) in
    next.(doc) <- k + 1;
    Atomic.incr issued.(doc);
    let op = inp.scripts.(doc).Upscript.ops.(k) in
    let out =
      Conn.call ca ~kind:"UPDATE" ~req:(base + i)
        (P.Update { doc = names.(doc); op })
    in
    let replied = Unix.gettimeofday () in
    let body = Conn.ok_body out in
    let v = Option.bind body (fun b -> Conn.kv_int b "v") in
    let seq = Option.bind body (fun b -> Conn.kv_int b "seq") in
    let ok =
      match v, seq with
      | Some v, Some seq -> seq = k + 1 && v > !last_v_a
      | _ -> false
    in
    Report.outcome report ~ok ~wrong:(body <> None)
      (lazy
        (Printf.sprintf "UPDATE %s #%d: want seq=%d and v>%d, got %s"
           names.(doc) k (k + 1) !last_v_a (Conn.describe out)));
    (match v, body with
    | Some v, Some b ->
      last_v_a := max v !last_v_a;
      if Atomic.get in_open then log.acks <- (v, replied) :: log.acks;
      Option.iter (fun c -> log.changed <- c :: log.changed) (Conn.kv_int b "changed")
    | _ -> ());
    (replied, ok)
  in
  (* [last_v]: the highest follower version seen on this connection *)
  let exec_read cb ~last_v reads base i =
    let r = reads.(i) in
    let out = Conn.call cb ~kind:r.read.Inputs.kind ~req:(base + i) r.read.Inputs.request in
    let replied = Unix.gettimeofday () in
    let body = Conn.ok_body out in
    let v = Option.bind body (fun b -> Conn.kv_int b "v") in
    let total = Option.bind body (fun b -> Conn.kv_int b "total") in
    let ok =
      match v, total with
      | Some v, Some total ->
        v >= !last_v
        && (if r.bid then total >= 0 && total <= min window (Atomic.get issued.(r.doc))
            else total = r.read.Inputs.expect)
      | _ -> false
    in
    Report.outcome report ~ok ~wrong:(body <> None)
      (lazy
        (Printf.sprintf "follower %s: want total=%s and v>=%d, got %s"
           (P.request_to_string r.read.Inputs.request)
           (if r.bid then "<= live leaves" else string_of_int r.read.Inputs.expect)
           !last_v (Conn.describe out)));
    Option.iter
      (fun v ->
        last_v := max v !last_v;
        if Atomic.get in_open then log.freplies <- (replied, v) :: log.freplies)
      v;
    (replied, ok)
  in
  let upd_cursor conn phase base =
    Drive.cursor ~max_n:(Array.length inp.upd.(phase))
      (exec_update conn inp.upd.(phase) base)
  and read_cursor conn phase base =
    Drive.cursor ~max_n:(Array.length inp.reads.(phase))
      (exec_read conn ~last_v:(ref 0) inp.reads.(phase) base)
  in
  (* A sends UPDATEs to the primary and B reads the follower, each at its
     fixed rate. *)
  let fixed ~secs ua rb =
    let t0 = Drive.start_soon () in
    let until = t0 +. secs in
    Drive.both
      (fun () -> Drive.open_stream ~t0 ~until ~rate:update_rate ~phase:0. ua)
      (fun () -> Drive.open_stream ~t0 ~until ~rate:read_rate ~phase:0.5 rb)
  in
  ignore
    (fixed ~secs:warmup_s (upd_cursor ca 0 10_000_000) (read_cursor cb 0 11_000_000));
  let ua = upd_cursor ca 1 20_000_000 and rb = read_cursor cb 1 21_000_000 in
  Atomic.set in_open true;
  let subs =
    List.init Drive.cycles (fun _ -> Drive.sub (fun () -> fixed ~secs:inp.open_s ua rb))
  in
  Atomic.set in_open false;
  let bytes_after_open = Proc.dir_bytes primary_dir in
  List.iter Conn.close [ ca; cb ];
  (* update capacity: UPDATEs back to back, the follower left to catch up *)
  let xa = Conn.create ~timeout_ms primary_socket in
  let upd_closed =
    Drive.sub (fun () ->
        [ Drive.closed_stream
            ~until:(Unix.gettimeofday () +. inp.burst_s)
            (upd_cursor xa 2 30_000_000) ])
  in
  Conn.close xa;
  catch_up report;
  (* read capacity: both connections read the caught-up follower *)
  let xb = Conn.create ~timeout_ms follower_socket
  and xc = Conn.create ~timeout_ms follower_socket in
  let rb = read_cursor xb 2 31_000_000 and rc = read_cursor xc 3 32_000_000 in
  let read_closed =
    List.init Drive.cycles (fun _ ->
        Drive.sub (fun () ->
            let until = Unix.gettimeofday () +. inp.closed_s in
            let a, b =
              Drive.both
                (fun () -> Drive.closed_stream ~until rb)
                (fun () -> Drive.closed_stream ~until rc)
            in
            [ a; b ]))
  in
  List.iter Conn.close [ xb; xc ];
  let part f = List.map (fun s -> { s with Drive.result = f s.Drive.result }) subs in
  { upd_open = part fst; read_open = part snd; upd_closed; read_closed; log;
    applied = next; bytes_after_open }

(* ------------------------------------------------------------------ *)
(* After the run: primary and follower must agree                        *)
(* ------------------------------------------------------------------ *)

(* The follower caught up before the read-capacity phase and nothing has
   written since. *)
let final_checks report inp pass =
  let check ok why = Report.outcome report ~ok why in
  Array.iteri
    (fun i name ->
      let live = Upscript.live_after inp.scripts.(i) pass.applied.(i) in
      List.iter
        (fun req ->
          let p = Drive.once_ok primary_socket req
          and f = Drive.once_ok follower_socket req in
          check (p <> None && p = f)
            (lazy (Printf.sprintf "%s: primary and follower differ"
                     (P.request_to_string req))))
        [ P.Query_doc { doc = name; xpath = "//bid" };
          P.Query_doc { doc = name; xpath = "//person[creditcard]/name" } ];
      List.iter
        (fun sock ->
          check (Drive.once_ok sock (P.Check name) <> None)
            (lazy (Printf.sprintf "CHECK %s failed on %s" name sock));
          let total =
            Option.bind
              (Drive.once_ok sock (P.Count_doc { doc = name; xpath = "//bid" }))
              (fun b -> Conn.kv_int b "total")
          in
          check (total = Some live)
            (lazy (Printf.sprintf "%s //bid on %s: mirror has %d" name sock live)))
        [ primary_socket; follower_socket ])
    names

let record report inp pass =
  Drive.record_latency report "read" pass.read_open;
  Drive.record_capacity report "read_capacity_rps" pass.read_closed;
  Drive.record_latency report "update" pass.upd_open;
  Drive.record_capacity report "update_capacity_rps" [ pass.upd_closed ];
  let lags, missing =
    Lag.lags ~acks:(List.rev pass.log.acks) ~replies:pass.log.freplies
  in
  Drive.record_percentiles report "follower_lag"
    (Array.of_list (List.map (fun l -> l *. 1e3) lags));
  Report.info report "follower_lag_unmatched" (Report.Int missing);
  Report.metric report "stored_bytes_per_input_byte" "ratio"
    (float_of_int pass.bytes_after_open /. float_of_int inp.input_bytes);
  let merged subs = Drive.merge_open (List.map (fun s -> s.Drive.result) subs) in
  Drive.record_lateness report
    [ (merged pass.upd_open, 1. /. update_rate); (merged pass.read_open, 1. /. read_rate) ]
