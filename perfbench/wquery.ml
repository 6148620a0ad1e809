(* Workload [query]: one [serve] hosting six XMark documents with the
   result cache on; reads only.

   Nothing writes, so the snapshot never changes: the result cache
   (Query_cache), the planner and query execution do nearly all the work,
   and read-path changes show here and nowhere else.  Reads are 80%
   single-document COUNTD/QUERYD and 20% collection-wide COUNT/QUERY;
   queries are drawn Zipf over a head of structural queries (chain, twig,
   guide-pruned, reverse-axis fallback) plus a uniform tail of
   value-predicate queries with fresh constants that miss both caches, so
   the cache holds the head while the tail keeps the planner and executor
   busy and makes the cache evict. *)

module P = Rserver.Protocol
module Rng = Rworkload.Rng

(* XMark sizes in generator units (about 2.1 nodes each): documents of
   about 2k to 33k nodes. *)
let doc_sizes = [| 1000; 1500; 2500; 4000; 8000; 16000 |]

let names = Array.mapi (fun i _ -> Printf.sprintf "auction%d" i) doc_sizes

(* Deployment knobs. *)
let workers = 2
let cache_mb = 1
let plan_cache = 256

let knobs =
  Report.
    [ ("serve.workers", Int workers); ("serve.domains", Int 0);
      ("serve.cache_mb", Int cache_mb); ("serve.plan_cache", Int plan_cache);
      ("serve.planner", Str "on") ]

(* Traffic. *)
let rate = 200. (* reads/s over both connections, open loop *)
let warmup_s = 1.5
let open_share = 0.5
let collection_share = 0.2
let tail_share = 0.1
let zipf_s = 1.0

(* Closed-loop draws prepared per connection and second: about twice the
   fastest rate seen on a 2-core machine (5,650).  A connection that runs
   out ends its closed-loop sub-phases early, counting what it did. *)
let closed_per_s = 10000

type inputs = {
  docs : Inputs.doc_file array;
  input_bytes : int;
  warm : Inputs.read array * Inputs.read array;
  openl : Inputs.read array * Inputs.read array;
  closed : Inputs.read array * Inputs.read array;
  open_s : float;
  closed_s : float;
  distinct : int;  (** distinct requests with a precomputed answer *)
}

let prepare ~seed ~seconds =
  Proc.mkdir_p "inputs";
  let docs =
    Array.mapi
      (fun i size ->
        Inputs.materialize ~dir:"inputs" ~name:names.(i)
          (Inputs.xmark ~seed:((seed * 101) + i) ~size))
      doc_sizes
  in
  let evs = Array.map (fun d -> Inputs.evaluator_of_file d.Inputs.path) docs in
  let head = Inputs.xmark_head in
  let seen = Hashtbl.create 4096 in
  let draw rng =
    let doc =
      if Rng.float rng < collection_share then None
      else Some (Rng.int rng (Array.length docs))
    in
    let verb = if Rng.bool rng then `Count else `Query in
    let xpath =
      if Rng.float rng < tail_share then
        let pre, post, hi = Rng.pick rng Inputs.xmark_tail in
        pre ^ Inputs.fresh_constant rng seen hi ^ post
      else head.(Rng.zipf rng ~s:zipf_s ~n:(Array.length head) - 1)
    in
    (doc, verb, xpath)
  in
  let stream salt n =
    let rng = Rng.create ((seed * 7919) + salt) in
    Array.init n (fun _ -> draw rng)
  in
  let s = float_of_int seconds in
  let open_s = s *. open_share and closed_s = s *. (1. -. open_share) in
  let per_conn secs r =
    int_of_float (Float.ceil (secs *. r /. 2.)) + Drive.cycles + 1
  in
  let closed_n = int_of_float (closed_s *. float_of_int closed_per_s) in
  let warm_n = int_of_float (warmup_s *. float_of_int closed_per_s) in
  let drawn =
    [| stream 1 warm_n; stream 2 warm_n;
       stream 3 (per_conn open_s rate); stream 4 (per_conn open_s rate);
       stream 5 closed_n; stream 6 closed_n |]
  in
  let docs_of = function
    | Some i -> [ i ]
    | None -> List.init (Array.length docs) Fun.id
  in
  let counts =
    Inputs.count_all evs
      (Array.to_list drawn
      |> List.concat_map (fun a ->
             Array.to_list a
             |> List.concat_map (fun (doc, _, x) ->
                    List.map (fun i -> (i, x)) (docs_of doc))))
  in
  let reads a =
    Array.map
      (fun (doc, verb, xpath) ->
        let request, kind =
          Inputs.read_request
            ~doc:(Option.map (fun i -> names.(i)) doc)
            ~query_verb:verb xpath
        in
        let expect =
          List.fold_left
            (fun acc i -> acc + Hashtbl.find counts (i, xpath))
            0 (docs_of doc)
        in
        { Inputs.request; kind; expect })
      a
  in
  let r = Array.map reads drawn in
  {
    docs;
    input_bytes = Array.fold_left (fun a d -> a + d.Inputs.bytes) 0 docs;
    warm = (r.(0), r.(1));
    openl = (r.(2), r.(3));
    closed = (r.(4), r.(5));
    open_s;
    closed_s;
    distinct = Hashtbl.length counts;
  }

(* ------------------------------------------------------------------ *)
(* Deployment                                                           *)
(* ------------------------------------------------------------------ *)

let socket = "query.sock"
let data_dir = "query-data"

let launch ~ruidtool inp =
  Proc.rm_rf data_dir;
  Proc.spawn ~ruidtool ~name:"serve" ~socket
    ([ "serve"; "--socket"; socket; "--data-dir"; data_dir;
       "--workers"; string_of_int workers;
       "--cache-mb"; string_of_int cache_mb;
       "--plan-cache"; string_of_int plan_cache ]
    @ Array.to_list (Array.map (fun d -> d.Inputs.path) inp.docs))

(* Ready: a collection-wide count covering every document is right. *)
let readiness_query = "//item/name"

let ready inp =
  let expect =
    Array.fold_left
      (fun acc d -> acc + Inputs.count (Inputs.evaluator_of_file d.Inputs.path) readiness_query)
      0 inp.docs
  in
  fun (_ : Proc.t) ->
    match Drive.once_ok ~timeout_ms:2_000 socket (P.Count readiness_query) with
    | Some body ->
      Conn.kv_int body "total" = Some expect
      && Array.for_all
           (fun n -> Conn.kv body n <> None)
           names
    | None -> false

let teardown p =
  Proc.stop p;
  Proc.rm_rf data_dir

(* ------------------------------------------------------------------ *)
(* One pass                                                            *)
(* ------------------------------------------------------------------ *)

type pass = {
  opn : Drive.open_result Drive.sub list;  (** per sub-phase, both connections *)
  streams : (Drive.open_result * float) list;
      (** per connection over the run, with its request interval *)
  cls : Drive.closed_result list Drive.sub list;  (** per sub-phase *)
}

let timeout_ms = 10_000

let exec_read report conn ~req (r : Inputs.read) =
  let out = Conn.call conn ~kind:r.Inputs.kind ~req r.Inputs.request in
  let replied = Unix.gettimeofday () in
  let total = Option.bind (Conn.ok_body out) (fun b -> Conn.kv_int b "total") in
  let ok = total = Some r.Inputs.expect in
  Report.outcome report ~ok
    ~wrong:(Conn.ok_body out <> None)
    (lazy
      (Printf.sprintf "%s: want total=%d, got %s"
         (P.request_to_string r.Inputs.request) r.Inputs.expect
         (Conn.describe out)));
  (replied, ok)

let run_pass report inp ~tracer =
  (* closed-loop requests are never traced: tens of thousands of them would
     add nothing to the per-layer split of the fixed-rate ones *)
  let ca = Conn.create ?tracer ~timeout_ms socket
  and cb = Conn.create ?tracer ~timeout_ms socket
  and xa = Conn.create ~timeout_ms socket
  and xb = Conn.create ~timeout_ms socket in
  let cursors (ca, cb) base (ra, rb) =
    let cur conn base reads =
      Drive.cursor ~max_n:(Array.length reads) (fun i ->
          exec_read report conn ~req:(base + i) reads.(i))
    in
    (cur ca base ra, cur cb (base + 1_000_000) rb)
  in
  let open_sub (a, b) secs =
    let t0 = Drive.start_soon () in
    let until = t0 +. secs in
    Drive.both
      (fun () -> Drive.open_stream ~t0 ~until ~rate:(rate /. 2.) ~phase:0. a)
      (fun () -> Drive.open_stream ~t0 ~until ~rate:(rate /. 2.) ~phase:0.5 b)
  in
  let closed_sub (a, b) secs =
    let until = Unix.gettimeofday () +. secs in
    Drive.both
      (fun () -> Drive.closed_stream ~until a)
      (fun () -> Drive.closed_stream ~until b)
  in
  (* Warm-up, closed loop on draws of its own: the result cache reaches
     the state the traffic keeps it in (full, the head resident, the tail
     evicting) before anything is timed.  Answers are checked, timings are
     not kept.  Every fixed-rate sub-phase then follows a closed-loop one,
     which leaves the cache in that same state. *)
  ignore (closed_sub (cursors (xa, xb) 10_000_000 inp.warm) warmup_s);
  let o = cursors (ca, cb) 20_000_000 inp.openl
  and x = cursors (xa, xb) 30_000_000 inp.closed in
  let k = float_of_int Drive.cycles in
  let subs =
    List.init Drive.cycles (fun _ ->
        let so = Drive.sub (fun () -> open_sub o (inp.open_s /. k)) in
        let sx =
          Drive.sub (fun () ->
              let a, b = closed_sub x (inp.closed_s /. k) in
              [ a; b ])
        in
        (so, sx))
  in
  List.iter Conn.close [ ca; cb; xa; xb ];
  let interval = 2. /. rate in
  let stream f =
    (Drive.merge_open (List.map (fun (so, _) -> f so.Drive.result) subs), interval)
  in
  { opn =
      List.map
        (fun (so, _) ->
          let a, b = so.Drive.result in
          { so with Drive.result = Drive.merge_open [ a; b ] })
        subs;
    streams = [ stream fst; stream snd ];
    cls = List.map snd subs }

let record report pass =
  Drive.record_latency report "read" pass.opn;
  Drive.record_capacity report "read_capacity_rps" pass.cls;
  Drive.record_lateness report pass.streams
