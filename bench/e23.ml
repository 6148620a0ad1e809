(* E23 — Resident words per node of a hosted document.

   Definition 3 makes an identifier a triple of small integers, and §2.2
   keeps only kappa and K in main memory; what a server keeps for a
   hosted document is the tree, its numbering and the planner's indexes.
   This experiment counts those words, per node, on the documents the
   serving benchmark ingests, and the major-heap words one ADDDOC's work
   allocates per input byte.

   Method: XMark (generator size 40000, about 82k nodes), DBLP (100000,
   about 100k nodes) and Shape uniform (fan-out 0-5, 12000 nodes) and
   skewed (Zipf 1.2 up to 200 children, 6000 nodes) documents, the largest
   of each family in the ingest workload's corpus, serialized and hosted
   as ADDDOC hosts them: [Stream_build.of_string] at area size 64 from
   the document node, [Persist.save], then [Snapshot.host] with a query
   planner.  [Obj.reachable_words] splits what stays resident:
   - dom: everything reachable from the document node;
   - numbering: what the numbering adds to the tree (of it, the order
     index: node versions, extents and identifiers);
   - planner: what the hosted document adds to both (of it, the
     DataGuide).
   Allocation is [Gc.counters]' major words (direct major allocations
   plus promotions) across each stage, with a minor collection before
   and after it, so a stage's figure does not depend on what the minor
   heap held when it started.  The resident words are deterministic;
   the allocation figures move by a few percent from run to run.

   Rows and the headline go to BENCH_resident.json; the CI [ingest] job
   fails when XMark holds more than 27 words per node or DBLP more than
   25. *)

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module Snapshot = Rserver.Snapshot

let max_area_size = 64

(* The ingest corpus's largest member of each family, generated as
   perfbench's inputs are. *)
let docs =
  [
    ("xmark", fun () -> Rworkload.Xmark.generate ~seed:23 ~scale:20.0);
    ("dblp", fun () -> Rworkload.Dblp.generate ~seed:23 ~publications:8333);
    ( "shape-uniform",
      fun () ->
        Rworkload.Shape.generate ~seed:23 ~target:12000
          (Rworkload.Shape.Uniform { fanout_lo = 0; fanout_hi = 5 }) );
    ( "shape-skewed",
      fun () ->
        Rworkload.Shape.generate ~seed:23 ~target:6000
          (Rworkload.Shape.Skewed { max_fanout = 200; s = 1.2 }) );
  ]

let workdir () = Report.workdir "e23"

(* Major-heap words [f] allocates, and its result. *)
let major_words f =
  Gc.minor ();
  let _, _, before = Gc.counters () in
  let v = f () in
  Gc.minor ();
  let _, _, after = Gc.counters () in
  (v, int_of_float (after -. before))

let words x = Obj.reachable_words (Obj.repr x)

type row = {
  name : string;
  bytes : int;
  nodes : int;
  dom : int;
  numbering : int;
  order : int;
  planner : int;
  guide : int;
  build_w : int;
  save_w : int;
  host_w : int;
}

let measure (name, gen) =
  let xml = Rxml.Serializer.to_string (gen ()) in
  let bytes = String.length xml in
  let b, build_w =
    major_words (fun () -> Ruid.Stream_build.of_string ~max_area_size xml)
  in
  let doc = b.Ruid.Stream_build.doc and r2 = b.Ruid.Stream_build.r2 in
  let base = Filename.concat (workdir ()) name in
  let (), save_w =
    major_words (fun () ->
        Ruid.Persist.save r2 ~xml:(base ^ ".xml") ~sidecar:(base ^ ".ruid"))
  in
  let hosted, host_w =
    major_words (fun () ->
        Snapshot.host (Snapshot.capture ~version:1 [])
          ~planner:(Rxpath.Planner.make_shared ()) ~version:2 [ ("doc", r2) ])
  in
  Sys.remove (base ^ ".xml");
  Sys.remove (base ^ ".ruid");
  let d = (fst hosted).Snapshot.docs.(0) in
  let nodes = Ruid.Order_index.size (R2.order r2) in
  let dom = words doc in
  let with_numbering = words (doc, r2) in
  let with_planner = words (doc, r2, d) in
  let guide =
    match d.Snapshot.planner with
    | Some p -> words (doc, r2, Rxpath.Planner.guide p) - with_numbering
    | None -> 0
  in
  {
    name; bytes; nodes; dom;
    numbering = with_numbering - dom;
    order = words (doc, R2.order r2) - dom;
    planner = with_planner - with_numbering;
    guide; build_w; save_w; host_w;
  }

let per n x = float_of_int x /. float_of_int n
let total r = r.dom + r.numbering + r.planner

let row_json r =
  Printf.sprintf
    {|    {"doc": %S, "bytes": %d, "nodes": %d, "words_per_node": %.2f, "dom": %.2f, "numbering": %.2f, "order_index": %.2f, "planner": %.2f, "dataguide": %.2f, "bytes_per_input_byte": %.2f, "major_words_per_input_byte": {"stream_build": %.3f, "save": %.3f, "host": %.3f, "total": %.3f}}|}
    r.name r.bytes r.nodes
    (per r.nodes (total r))
    (per r.nodes r.dom) (per r.nodes r.numbering) (per r.nodes r.order)
    (per r.nodes r.planner) (per r.nodes r.guide)
    (per r.bytes (total r * (Sys.word_size / 8)))
    (per r.bytes r.build_w) (per r.bytes r.save_w) (per r.bytes r.host_w)
    (per r.bytes (r.build_w + r.save_w + r.host_w))

let run () =
  Report.section "E23  Resident words per node of a hosted document";
  let rows = List.map measure docs in
  Unix.rmdir (workdir ());
  Report.table
    [ "doc"; "nodes"; "words/node"; "dom"; "numbering"; "(order)"; "planner";
      "(guide)"; "B/input B"; "build w/B"; "save w/B"; "host w/B" ]
    (List.map
       (fun r ->
         let f x = Printf.sprintf "%.2f" (per r.nodes x) in
         [ r.name; Report.fint r.nodes; f (total r); f r.dom; f r.numbering;
           f r.order; f r.planner; f r.guide;
           Printf.sprintf "%.2f" (per r.bytes (total r * (Sys.word_size / 8)));
           Printf.sprintf "%.3f" (per r.bytes r.build_w);
           Printf.sprintf "%.3f" (per r.bytes r.save_w);
           Printf.sprintf "%.3f" (per r.bytes r.host_w) ])
       rows);
  Report.note "words/node = dom + numbering + planner (Obj.reachable_words);";
  Report.note "the order index is part of the numbering, the DataGuide of the";
  Report.note "planner.  w/B: major-heap words one ADDDOC stage allocates per";
  Report.note "input byte.";
  let find n = List.find (fun r -> r.name = n) rows in
  let wpn n = let r = find n in per r.nodes (total r) in
  let oc = open_out "BENCH_resident.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E23\",\n%s,\n\
    \  \"headline\": {\"xmark_words_per_node\": %.2f, \
     \"dblp_words_per_node\": %.2f, \"shape_uniform_words_per_node\": %.2f, \
     \"shape_skewed_words_per_node\": %.2f},\n\
    \  \"rows\": [\n%s\n  ]\n}\n"
    (Report.meta_json ~knobs:[ ("max_area_size", max_area_size) ] ())
    (wpn "xmark") (wpn "dblp") (wpn "shape-uniform") (wpn "shape-skewed")
    (String.concat ",\n" (List.map row_json rows));
  close_out oc;
  Report.note "wrote BENCH_resident.json"
