(* Workload [ingest]: a [router] over two shards.

   Each shard boots hosting two documents of its own, so set-up parses,
   numbers and persists real documents.  Both connections then stream a seeded corpus of XMark, DBLP and Shape
   documents (a few KB to about 2 MB) through the router; the documents
   over the 1 MiB frame cap ship as ADDCHUNK sequences through
   [Client.add_doc_file].  After the load, collection-wide COUNT/QUERY
   scatters run at a fixed rate over the loaded corpus.  Sax/Stream_build,
   Persist, Snapshot.add_doc and Router forwarding, scatter and merge do
   the work; the commit pipeline, replication and the result cache do
   none. *)

module P = Rserver.Protocol
module Rng = Rworkload.Rng

(* Deployment knobs. *)
let shards = 2
let workers = 2

(* The router's default 2 s per-shard deadline also bounds the committing
   ADDCHUNK, which parses, numbers and persists a whole document; the
   largest documents here can take longer than that under load. *)
let shard_deadline_ms = 10_000

let knobs =
  Report.
    [ ("shards", Int shards); ("shard.workers", Int workers);
      ("shard.domains", Int 0); ("shard.cache_mb", Int 0);
      ("router.fanout", Str "all"); ("router.shard_deadline_ms", Int shard_deadline_ms) ]

(* Traffic. *)
let scatter_rate = 100. (* scatters/s over both connections, open loop *)
let warmup_s = 1.0
let open_share = 0.7
let closed_per_s = 1500

(* Corpus recipe: (family, size in generator units).  Three documents
   exceed the 1 MiB frame cap. *)
let recipe =
  [ (`Xmark, 40000); (`Dblp, 100000); (`Xmark, 26000);
    (`Xmark, 4000); (`Dblp, 16000); (`Shape `Uniform, 12000); (`Xmark, 2000);
    (`Dblp, 6000); (`Shape `Skewed, 6000);
    (`Xmark, 400); (`Xmark, 200); (`Xmark, 100); (`Dblp, 1000); (`Dblp, 400);
    (`Dblp, 150); (`Shape `Deep, 800); (`Shape `Uniform, 300);
    (`Shape `Skewed, 120); (`Xmark, 300); (`Dblp, 600); (`Shape `Deep, 500);
    (`Xmark, 150); (`Dblp, 250); (`Shape `Uniform, 200) ]

(* Documents each shard boots with: (family, size in generator units). *)
let initial = [ (`Xmark, 5000); (`Dblp, 8000) ]

(* Chains, twigs and a DataGuide-refuted path over all three families,
   each a few milliseconds through the router, so no single query owns the
   tail. *)
let scatter_queries =
  [| "//a/b"; "//sec//p"; "//entry/item"; "//open_auction/bidder/increase";
     "//warehouse/item"; "//d[c]/b"; "//closed_auction/price"; "//d/c";
     "//b//item"; "//p/entry"; "//people/person"; "//booktitle" |]

type inputs = {
  boot : Inputs.doc_file array array;  (** per shard, hosted at launch *)
  corpus : Inputs.doc_file array;
  corpus_bytes : int;
  hosted_bytes : int;  (** boot documents and corpus *)
  split : Inputs.doc_file array * Inputs.doc_file array;  (** per connection *)
  scatters : Inputs.read array array;
      (** open A, open B, closed A, closed B, warm-up A, warm-up B *)
  open_s : float;
  closed_s : float;
}

let family_name = function
  | `Xmark -> "xmark"
  | `Dblp -> "dblp"
  | `Shape _ -> "shape"

let generate ~seed family size =
  match family with
  | `Xmark -> Inputs.xmark ~seed ~size
  | `Dblp -> Inputs.dblp ~seed ~size
  | `Shape profile -> Inputs.shape ~seed ~size profile

let prepare ~seed ~seconds =
  Proc.mkdir_p "inputs";
  let rng = Rng.create (seed * 53) in
  let corpus =
    Array.of_list
      (List.mapi
         (fun i (family, size) ->
           (* sizes vary by up to 6% with the seed *)
           let size = size * (97 + Rng.int rng 7) / 100 in
           Inputs.materialize ~dir:"inputs"
             ~name:(Printf.sprintf "c%02d-%s" i (family_name family))
             (generate ~seed:((seed * 1009) + i) family size))
         recipe)
  in
  let boot =
    Array.init shards (fun sh ->
        Array.of_list
          (List.mapi
             (fun j (family, size) ->
               Inputs.materialize ~dir:"inputs"
                 ~name:(Printf.sprintf "s%d-boot%d-%s" sh j (family_name family))
                 (generate ~seed:((seed * 2003) + (sh * 10) + j) family size))
             initial))
  in
  let hosted = Array.append (Array.concat (Array.to_list boot)) corpus in
  (* both connections carry about half the bytes *)
  let by_size = Array.copy corpus in
  Array.sort (fun a b -> compare b.Inputs.bytes a.Inputs.bytes) by_size;
  let a, b, _, _ =
    Array.fold_left
      (fun (a, b, wa, wb) d ->
        if wa <= wb then (d :: a, b, wa + d.Inputs.bytes, wb)
        else (a, d :: b, wa, wb + d.Inputs.bytes))
      ([], [], 0, 0) by_size
  in
  let evs = Array.map (fun d -> Inputs.evaluator_of_file d.Inputs.path) hosted in
  let counts =
    Inputs.count_all evs
      (List.concat_map
         (fun i -> List.map (fun q -> (i, q)) (Array.to_list scatter_queries))
         (List.init (Array.length hosted) Fun.id))
  in
  let totals =
    Array.map
      (fun q ->
        Array.fold_left ( + ) 0
          (Array.mapi (fun i _ -> Hashtbl.find counts (i, q)) hosted))
      scatter_queries
  in
  let s = float_of_int seconds in
  let open_s = s *. open_share and closed_s = s *. (1. -. open_share) in
  let stream salt n =
    let rng = Rng.create ((seed * 7907) + salt) in
    Array.init n (fun _ ->
        let q = Rng.int rng (Array.length scatter_queries) in
        let request, kind =
          Inputs.read_request ~doc:None
            ~query_verb:(if Rng.bool rng then `Count else `Query)
            scatter_queries.(q)
        in
        { Inputs.request; kind; expect = totals.(q) })
  in
  let per_conn =
    int_of_float (Float.ceil (open_s *. scatter_rate /. 2.)) + Drive.cycles + 1
  in
  let warm = int_of_float (Float.ceil (warmup_s *. scatter_rate /. 2.)) + 1 in
  let closed_n = int_of_float (closed_s *. float_of_int closed_per_s) in
  let bytes = Array.fold_left (fun a d -> a + d.Inputs.bytes) 0 in
  {
    boot;
    corpus;
    corpus_bytes = bytes corpus;
    hosted_bytes = bytes hosted;
    split = (Array.of_list (List.rev a), Array.of_list (List.rev b));
    scatters =
      [| stream 1 per_conn; stream 2 per_conn; stream 3 closed_n; stream 4 closed_n;
         stream 5 warm; stream 6 warm |];
    open_s; closed_s;
  }

(* ------------------------------------------------------------------ *)
(* Deployment                                                           *)
(* ------------------------------------------------------------------ *)

let router_socket = "router.sock"
let shard_socket i = Printf.sprintf "shard%d.sock" i
let shard_dir i = Printf.sprintf "shard%d-data" i

type deployment = { shard_procs : Proc.t list; router : Proc.t }

let launch ~ruidtool inp =
  let shard_procs =
    List.init shards (fun i ->
        Proc.rm_rf (shard_dir i);
        Proc.spawn ~ruidtool ~name:(Printf.sprintf "shard%d" i)
          ~socket:(shard_socket i)
          ([ "serve"; "--socket"; shard_socket i; "--data-dir"; shard_dir i;
             "--gen-kind"; "none"; "--workers"; string_of_int workers ]
          @ Array.to_list (Array.map (fun d -> d.Inputs.path) inp.boot.(i))))
  in
  List.iteri
    (fun i p ->
      Drive.wait_ready ~procs:[ p ] (fun () ->
          Drive.once_ok ~timeout_ms:2_000 (shard_socket i) P.Ping <> None))
    shard_procs;
  let router =
    Proc.spawn ~ruidtool ~name:"router" ~socket:router_socket
      ([ "router"; "--socket"; router_socket;
         "--shard-deadline-ms"; string_of_int shard_deadline_ms ]
      @ List.concat_map (fun i -> [ "--shard"; shard_socket i ])
          (List.init shards Fun.id))
  in
  { shard_procs; router }

let procs d = d.router :: d.shard_procs

let boot_docs inp = Array.fold_left (fun a b -> a + Array.length b) 0 inp.boot

(* Ready: the router answers DOCS from every shard, listing every boot
   document. *)
let ready inp (_ : deployment) =
  match Drive.once_ok ~timeout_ms:2_000 router_socket P.Docs with
  | Some body ->
    Conn.kv body "partial" = None && Conn.kv_int body "docs" = Some (boot_docs inp)
  | None -> false

let teardown d =
  Proc.stop d.router;
  List.iter Proc.stop d.shard_procs;
  List.iteri (fun i _ -> Proc.rm_rf (shard_dir i)) d.shard_procs

(* ------------------------------------------------------------------ *)
(* One pass                                                            *)
(* ------------------------------------------------------------------ *)

let timeout_ms = 10_000

type pass = {
  load_s : float;  (** first document sent to last acknowledged *)
  doc_acks : (string * float * float) list;  (** name, sent, acked *)
  opn : Drive.open_result Drive.sub list;  (** per sub-phase, both connections *)
  streams : (Drive.open_result * float) list;
      (** per connection over the run, with its request interval *)
  cls : Drive.closed_result list Drive.sub list;  (** per sub-phase *)
  stored_bytes : int;
}

let ingest_docs report docs =
  let c = Rserver.Client.connect router_socket in
  Fun.protect ~finally:(fun () -> Rserver.Client.close c) @@ fun () ->
  Array.to_list docs
  |> List.map (fun (d : Inputs.doc_file) ->
         let t0 = Unix.gettimeofday () in
         let r =
           match Rserver.Client.add_doc_file c ~doc:d.Inputs.name d.Inputs.path with
           | r -> Conn.Reply (r, 0)
           | exception (End_of_file | Sys_error _ | Unix.Unix_error _
                       | P.Protocol_error _) ->
             raise (Conn.Deployment_dead "router hung up during ingest")
         in
         let t1 = Unix.gettimeofday () in
         let body = Conn.ok_body r in
         let ok =
           match body with
           | Some b ->
             Conn.kv b "doc" = Some d.Inputs.name
             && Conn.kv_int b "nodes" = Some d.Inputs.nodes
           | None -> false
         in
         Report.outcome report ~ok ~wrong:(body <> None)
           (lazy
             (Printf.sprintf "ADDDOC %s: want nodes=%d, got %s" d.Inputs.name
                d.Inputs.nodes (Conn.describe r)));
         (d.Inputs.name, t0, t1))

(* Kind of the direct shard calls a traced scatter is compared with. *)
let direct_kind kind = "SHARD " ^ kind

(* A scatter through the router.  Traced, the same request then goes to
   every shard directly: the router's total must be the sum of theirs, and
   the difference in latency is the router's own overhead. *)
let exec_scatter report conn ~direct ~req (r : Inputs.read) =
  let out = Conn.call conn ~kind:r.Inputs.kind ~req r.Inputs.request in
  let replied = Unix.gettimeofday () in
  let total b = Conn.kv_int b "total" in
  let body = Conn.ok_body out in
  let ok =
    match body with
    | Some b -> total b = Some r.Inputs.expect && Conn.kv b "partial" = None
    | None -> false
  in
  Report.outcome report ~ok ~wrong:(body <> None)
    (lazy
      (Printf.sprintf "%s: want total=%d, got %s"
         (P.request_to_string r.Inputs.request) r.Inputs.expect
         (Conn.describe out)));
  (match direct with
  | [] -> ()
  | shards ->
    let parts =
      List.map
        (fun c ->
          Option.bind
            (Conn.ok_body
               (Conn.call c ~kind:(direct_kind r.Inputs.kind) ~req r.Inputs.request))
            total)
        shards
    in
    let sum = List.fold_left (fun a p -> Option.bind a (fun a -> Option.map (( + ) a) p)) (Some 0) parts in
    Report.outcome report ~ok:(sum <> None && sum = Option.bind body total) ~wrong:true
      (lazy
        (Printf.sprintf "%s: router total is not the sum of the shard totals"
           (P.request_to_string r.Inputs.request))));
  (replied, ok)

let run_pass report inp ~tracer =
  let da, db = inp.split in
  let acks_a, acks_b =
    Drive.both (fun () -> ingest_docs report da) (fun () -> ingest_docs report db)
  in
  let acks = acks_a @ acks_b in
  let first = List.fold_left (fun a (_, t0, _) -> Float.min a t0) infinity acks in
  let last = List.fold_left (fun a (_, _, t1) -> Float.max a t1) 0. acks in
  let stored_bytes =
    List.fold_left (fun a i -> a + Proc.dir_bytes (shard_dir i)) 0
      (List.init shards Fun.id)
  in
  (* closed-loop requests are never traced: thousands of them would add
     nothing to the per-layer split of the fixed-rate ones *)
  let ca = Conn.create ?tracer ~timeout_ms router_socket
  and cb = Conn.create ?tracer ~timeout_ms router_socket
  and pa = Conn.create ~timeout_ms router_socket
  and pb = Conn.create ~timeout_ms router_socket in
  let direct () =
    match tracer with
    | None -> []
    | Some _ ->
      List.init shards (fun i -> Conn.create ?tracer ~timeout_ms (shard_socket i))
  in
  let da = direct () and db = direct () in
  let cursors ((ca, da), (cb, db)) base a b =
    let cur conn direct base reads =
      Drive.cursor ~max_n:(Array.length reads) (fun i ->
          exec_scatter report conn ~direct ~req:(base + i) reads.(i))
    in
    (cur ca da base a, cur cb db (base + 1_000_000) b)
  in
  let traced = ((ca, da), (cb, db)) and plain = ((pa, []), (pb, [])) in
  let o = cursors traced 20_000_000 inp.scatters.(0) inp.scatters.(1)
  and x = cursors plain 30_000_000 inp.scatters.(2) inp.scatters.(3)
  and w = cursors traced 10_000_000 inp.scatters.(4) inp.scatters.(5) in
  let open_sub (a, b) secs =
    let t0 = Drive.start_soon () in
    let until = t0 +. secs in
    let run c phase () =
      Drive.open_stream ~t0 ~until ~rate:(scatter_rate /. 2.) ~phase c
    in
    Drive.both (run a 0.) (run b 0.5)
  in
  (* warm-up: the shards' collections after the load; answers are checked,
     latency is not kept *)
  ignore (open_sub w warmup_s);
  let k = float_of_int Drive.cycles in
  let subs =
    List.init Drive.cycles (fun _ ->
        let so = Drive.sub (fun () -> open_sub o (inp.open_s /. k)) in
        let sx =
          Drive.sub (fun () ->
              let until = Unix.gettimeofday () +. (inp.closed_s /. k) in
              let a, b =
                Drive.both
                  (fun () -> Drive.closed_stream ~until (fst x))
                  (fun () -> Drive.closed_stream ~until (snd x))
              in
              [ a; b ])
        in
        (so, sx))
  in
  List.iter Conn.close (ca :: cb :: pa :: pb :: da @ db);
  let interval = 2. /. scatter_rate in
  let stream f =
    (Drive.merge_open (List.map (fun (so, _) -> f so.Drive.result) subs), interval)
  in
  { load_s = last -. first; doc_acks = acks;
    opn =
      List.map
        (fun (so, _) ->
          let a, b = so.Drive.result in
          { so with Drive.result = Drive.merge_open [ a; b ] })
        subs;
    streams = [ stream fst; stream snd ];
    cls = List.map snd subs;
    stored_bytes }

let final_checks report inp =
  let body = Drive.once_ok router_socket P.Docs in
  Report.outcome report
    ~ok:(Option.bind body (fun b -> Conn.kv_int b "docs")
         = Some (boot_docs inp + Array.length inp.corpus))
    (lazy "router DOCS does not list every boot document and the whole corpus")

let record report inp pass =
  (* the scatters are this workload's reads *)
  Drive.record_latency report "read" pass.opn;
  List.iter
    (fun p ->
      Option.iter
        (Report.metric report (Printf.sprintf "scatter_%s_ms" p) "ms")
        (Report.find report (Printf.sprintf "read_%s_ms" p)))
    [ "p50"; "p90"; "p95"; "p99" ];
  Drive.record_capacity report "read_capacity_rps" pass.cls;
  Report.metric report "ingest_mb_s" "MB/s"
    (float_of_int inp.corpus_bytes /. 1e6 /. Float.max pass.load_s 1e-9);
  Report.metric report "stored_bytes_per_input_byte" "ratio"
    (float_of_int pass.stored_bytes /. float_of_int inp.hosted_bytes);
  Drive.record_lateness report pass.streams;
  Report.info report "corpus"
    (Report.Obj
       [ ("documents", Report.Int (Array.length inp.corpus));
         ("bytes", Report.Int inp.corpus_bytes);
         ("boot_documents", Report.Int (boot_docs inp));
         ("hosted_bytes", Report.Int inp.hosted_bytes);
         ("over_frame_cap",
          Report.Int
            (Array.fold_left
               (fun a d -> if d.Inputs.bytes > P.max_frame then a + 1 else a)
               0 inp.corpus)) ])
