(* E16 — Cost-based query planner vs always-engine evaluation.

   The planner compiles each XPath into an explicit physical plan — chain
   structural joins over tag postings, the twig semijoin, a DataGuide
   refutation, or the engine as fallback — where the seed always ran the
   full evaluator.  This experiment measures what that buys, uncached (the
   result cache is not involved; the planner's plan cache is on, which is
   part of what is being measured — planning cost amortizes, execution
   repeats):

   - the E14 read mix (mid-cost XMark queries, several of which only the
     engine can run) — the planner must never lose here, because falling
     back is part of the plan space;
   - a branching/twig set the structural-join machinery should win
     outright;
   - a pruned set of structurally impossible paths the DataGuide refutes
     in microseconds without touching a posting list;
   - a Shape uniform set: the random-tag family (eight tags, fan-out 0-5)
     whose collection scatters are the slowest in perfbench's [ingest]
     workload, queried with that workload's chains and twig.

   Every query is first checked for answer equality: the planner and the
   engine must return the same nodes in the same order, or the experiment
   aborts.  Every join-planned query also records the words one execution
   allocates (a COUNT, plan-cache key precomputed as the service does) and
   the posting entries its name tests cover; the headline divides their
   sums.  The join kernels must allocate in proportion to what they read,
   never to the document.  Raw rows and the headline go to
   BENCH_plan.json; the CI `planner` job gates on the headline. *)

module R2 = Ruid.Ruid2
module Planner = Rxpath.Planner

let json_rows : string list ref = ref []

type row = {
  set : string;
  query : string;
  strategy : string;
  engine_us : float;
  planner_us : float;
  alloc : (float * int) option;
      (* join plans only: words one execution allocates, posting entries
         its name tests cover *)
}

let results : row list ref = ref []

(* Branching patterns: structural predicates the twig semijoin handles and
   multi-step chains with a selective tail. *)
let branching_queries =
  [|
    "//item[payment][quantity]/name";
    "//person[profile/interest]/name";
    "//open_auction[bidder/increase]/current";
    "//closed_auction[annotation]/price";
    "//item[description//listitem]/name";
    "//regions//item/payment";
  |]

(* Structurally impossible label paths: the generator never nests these
   this way, so the DataGuide refutes them without touching postings. *)
let pruned_queries =
  [|
    "//warehouse/item";
    "//person/bidder/name";
    "/site/people/item";
    "//payment//person";
    "//category[name/price]";
  |]

(* perfbench [ingest]'s scatter queries that match the Shape tags. *)
let shape_queries =
  [| "//a/b"; "//sec//p"; "//entry/item"; "//d[c]/b"; "//d/c"; "//b//item";
     "//p/entry" |]

type doc = {
  planner : Planner.t;
  engine : Rxpath.Eval.engine;
      (* a separate engine build (not [Planner.engine]), so the comparison
         is against exactly what the seed ran: its own index, no shared
         state *)
  index : Rxpath.Doc_index.t;  (* posting cardinalities *)
}

let doc_of r2 =
  { planner = Planner.create r2; engine = Rxpath.Engine_ruid.create r2;
    index = Rxpath.Doc_index.build r2 }

(* Posting entries a query's name tests cover, predicates included. *)
let postings_read index (u : Rxpath.Ast.union_path) =
  let module A = Rxpath.Ast in
  let rec path (p : A.path) =
    List.fold_left (fun acc s -> acc + step s) 0 p.A.steps
  and step (s : A.step) =
    (match s.A.test with
    | A.Name tag -> Rxpath.Doc_index.cardinality index tag
    | _ -> 0)
    + List.fold_left (fun acc e -> acc + expr e) 0 s.A.preds
  and expr = function
    | A.Or (x, y) | A.And (x, y) | A.Cmp (_, x, y) | A.Contains (x, y)
    | A.Starts_with (x, y) ->
      expr x + expr y
    | A.Not e | A.String_length e -> expr e
    | A.Count p | A.Path p -> path p
    | A.Num _ | A.Str _ | A.Position | A.Last | A.Name_fun -> 0
  in
  List.fold_left (fun acc p -> acc + path p) 0 u

(* Words one call of [f] allocates, averaged over [reps] calls: minor
   words plus words allocated straight into the major heap.  On OCaml 5
   [Gc.quick_stat]'s counters move only at collections, so the exact
   [Gc.minor_words] is read instead. *)
let alloc_words reps f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (words () -. w0) /. float_of_int reps

let time_us reps f =
  (* median of 5 samples of [reps] runs, per-run microseconds *)
  let sample () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int reps
  in
  let samples = Array.init 5 (fun _ -> sample ()) in
  Array.sort compare samples;
  samples.(2)

let bench_set ~set ~reps d queries =
  let { planner; engine; index } = d in
  Array.iter
    (fun q ->
      let u = Rxpath.Xparser.parse_union q in
      let from_planner = Planner.select_union planner u in
      let from_engine = Rxpath.Eval.select_union engine u in
      if not (List.for_all2 ( == ) from_planner from_engine) then (
        Printf.eprintf "E16: planner/engine answer mismatch on %s\n" q;
        exit 1);
      let kind = Planner.kind (fst (Planner.plan_for planner u)) in
      let strategy = Planner.kind_name kind in
      let engine_us =
        time_us reps (fun () -> Rxpath.Eval.select_union engine u)
      in
      let planner_us =
        time_us reps (fun () -> Planner.select_union planner u)
      in
      let alloc =
        match kind with
        | `Chain | `Twig ->
          let key = Rxpath.Xparser.canonical_opt u in
          Some
            ( alloc_words reps (fun () -> Planner.count_union planner ~key u),
              postings_read index u )
        | `Engine | `Pruned -> None
      in
      results :=
        { set; query = q; strategy; engine_us; planner_us; alloc } :: !results;
      json_rows :=
        Printf.sprintf
          {|    {"set": %S, "query": %S, "strategy": %S, "engine_us": %.2f, "planner_us": %.2f, "speedup_x": %.2f, "alloc_words_per_posting": %s}|}
          set q strategy engine_us planner_us
          (engine_us /. Float.max planner_us 1e-9)
          (match alloc with
          | Some (w, p) -> Printf.sprintf "%.3f" (w /. float_of_int (max 1 p))
          | None -> "null")
        :: !json_rows)
    queries

let total set =
  List.fold_left
    (fun (e, p) r ->
      if r.set = set then (e +. r.engine_us, p +. r.planner_us) else (e, p))
    (0., 0.) !results

let write_json path ~mix_speedup ~branching_speedup ~shape_speedup ~pruned_us
    ~alloc =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E16\",\n%s,\n%s\n  \"rows\": [\n%s\n  ]\n}\n"
    (Report.meta_json ())
    (Printf.sprintf
       {|  "headline": {"comment": "uncached, wall-clock totals per set; alloc_words_per_posting: words the join-planned queries allocate per execution, over the posting entries their name tests cover, summed across them", "mix_speedup_x": %.2f, "branching_speedup_x": %.2f, "shape_speedup_x": %.2f, "pruned_us": %.2f, "alloc_words_per_posting": %.3f},|}
       mix_speedup branching_speedup shape_speedup pruned_us alloc)
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  Report.note "wrote %s" path

let run () =
  Report.section "E16  Query planner: structural-join plans vs always-engine";
  json_rows := [];
  results := [];
  let root = Rworkload.Xmark.generate ~seed:99 ~scale:2.0 in
  let xmark = doc_of (R2.number ~max_area_size:64 root) in
  Report.note "document: XMark scale 2 (%d nodes); DataGuide: %d label paths"
    (Rxml.Dom.size root)
    (Rsummary.Dataguide.guide_nodes (Planner.guide xmark.planner));
  (* Shape documents arrive parsed from files, under a document node. *)
  let shape_root =
    let doc = Rxml.Dom.document () in
    Rxml.Dom.append_child doc
      (Rworkload.Shape.generate ~seed:5 ~target:12000
         (Rworkload.Shape.Uniform { fanout_lo = 0; fanout_hi = 5 }));
    doc
  in
  let shape = doc_of (R2.number ~max_area_size:64 shape_root) in
  Report.note "document: Shape uniform, fan-out 0-5 (%d nodes)"
    (Rxml.Dom.size shape_root);
  bench_set ~set:"mix" ~reps:20 xmark E14.read_queries;
  bench_set ~set:"branching" ~reps:20 xmark branching_queries;
  bench_set ~set:"pruned" ~reps:100 xmark pruned_queries;
  bench_set ~set:"shape" ~reps:20 shape shape_queries;
  let rows =
    List.rev_map
      (fun r ->
        [
          r.set; r.query; r.strategy;
          Printf.sprintf "%.1f" r.engine_us;
          Printf.sprintf "%.1f" r.planner_us;
          Printf.sprintf "%.2fx" (r.engine_us /. Float.max r.planner_us 1e-9);
          (match r.alloc with
          | Some (w, p) -> Printf.sprintf "%.2f" (w /. float_of_int (max 1 p))
          | None -> "-");
        ])
      !results
  in
  Report.table
    [ "set"; "query"; "strategy"; "engine us"; "planner us"; "speedup";
      "words/posting" ]
    rows;
  let me, mp = total "mix" in
  let be, bp = total "branching" in
  let se, sp = total "shape" in
  let _, pp = total "pruned" in
  let mix_speedup = me /. Float.max mp 1e-9 in
  let branching_speedup = be /. Float.max bp 1e-9 in
  let shape_speedup = se /. Float.max sp 1e-9 in
  let pruned_us =
    pp /. float_of_int (Array.length pruned_queries)
  in
  let words, postings =
    List.fold_left
      (fun (w, p) r ->
        match r.alloc with Some (w', p') -> (w +. w', p + p') | None -> (w, p))
      (0., 0) !results
  in
  let alloc = words /. float_of_int (max 1 postings) in
  Report.note
    "mix speedup %.2fx, branching %.2fx, shape %.2fx, pruned answered in %.1f us"
    mix_speedup branching_speedup shape_speedup pruned_us;
  Report.note "join plans allocate %.2f words per posting entry read" alloc;
  Report.note
    "every planner answer was checked node-for-node against the engine;";
  Report.note
    "fallback queries pay only the planning probe, join-friendly ones run";
  Report.note "as posting-array structural joins, impossible paths never";
  Report.note "touch a posting list.";
  write_json "BENCH_plan.json" ~mix_speedup ~branching_speedup ~shape_speedup
    ~pruned_us ~alloc
