(* E22 — Numbering and restore cost per node.

   Every way a document becomes resident runs one of two constructions:
   [Ruid2.number] (serve's hosting, ADDDOC/ADDCHUNK through the streaming
   builder, the ingest shards) or [Persist.sidecar_of_bytes] (a follower's
   bootstrap and reinstall, ADOPT, checkpoint recovery).  Both run the
   enumeration kernel over one walk's preorder arrays (DESIGN §5, §6), so
   both should cost a constant per node whatever the document's size or
   shape.

   Method: XMark documents at about 4k, 33k and 205k nodes, a DBLP
   document at about 240k (its root has 20k children) and E20's 4 MiB
   catalog (238k nodes, whitespace kept: one element over 29.8k items
   and the text between them) numbered twice — from the document node,
   as [serve] and [Stream_build] number it, and from its root element —
   all at area size 64 and resident at once.  Per document, the median
   wall time over nine repetitions, each call after a full major
   collection, of:
   [Ruid2.number] on the parsed tree; [Persist.sidecar_to_bytes];
   [Persist.sidecar_of_bytes] against a copy of the tree (restore only:
   the XML parse is excluded); and, over three, the deep checker
   [Ruid2.check] (reported, not gated: ROADMAP item 8 owns its cost).
   A repetition times every document and operation in turn, so the two
   sides of each gated ratio are taken seconds apart, not minutes.
   Figures are microseconds per node.

   From the document node, the catalog's root area holds every item, and
   its cut is mostly the Section 2.3 promotion regrouping that area's
   frame children: a cost that must stay linear, as the rest of the
   kernel is.

   Rows and the headline go to BENCH_number.json; the CI [ingest] job
   fails when restore costs more than 1.5x number per node on either the
   XMark or the DBLP document over 200k nodes, when number's per-node cost
   on the largest XMark document exceeds 3x the smallest's, or when
   numbering the catalog from its document node costs more than 4x
   numbering it from its root element. *)

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module P = Ruid.Persist

let max_area_size = 64

let catalog =
  lazy
    (Rxml.Parser.parse_string ~keep_whitespace:true
       (E20.catalog ~target:(4 * 1024 * 1024)))

let docs =
  [
    ("xmark-4k", fun () -> Rworkload.Xmark.generate ~seed:22 ~scale:1.0);
    ("xmark-33k", fun () -> Rworkload.Xmark.generate ~seed:22 ~scale:8.0);
    ("xmark-205k", fun () -> Rworkload.Xmark.generate ~seed:22 ~scale:49.0);
    ("dblp-240k", fun () -> Rworkload.Dblp.generate ~seed:22 ~publications:20_000);
    ("catalog-4m-doc", fun () -> Lazy.force catalog);
    ("catalog-4m-elem", fun () -> Dom.root_element (Lazy.force catalog));
  ]

(* Seconds of one call, after a full major collection so one call's
   garbage is not charged to the next. *)
let secs f =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

type row = {
  name : string;
  nodes : int;
  number_us : float;
  save_us : float;
  restore_us : float;
  check_us : float;
}

type doc = {
  doc_name : string;
  root : Dom.t;
  copy : Dom.t;  (* what restore numbers: a clone of [root] *)
  r2 : R2.t;
  bytes : bytes;
}

let reps = 9

(* Every repetition times every document and operation back to back, so
   a slow spell of the machine lands on both sides of each ratio. *)
let run_rows () =
  let docs =
    List.map
      (fun (doc_name, gen) ->
        let root = gen () in
        let r2 = R2.number ~max_area_size root in
        { doc_name; root; copy = Dom.clone root; r2; bytes = P.sidecar_to_bytes r2 })
      docs
  in
  let samples = List.map (fun _ -> Array.make_matrix 3 reps 0.) docs in
  for i = 0 to reps - 1 do
    List.iter2
      (fun d m ->
        m.(0).(i) <- secs (fun () -> R2.number ~max_area_size d.root);
        m.(1).(i) <- secs (fun () -> P.sidecar_to_bytes d.r2);
        m.(2).(i) <- secs (fun () -> P.sidecar_of_bytes d.copy d.bytes))
      docs samples
  done;
  List.map2
    (fun d m ->
      let nodes = Dom.size d.root in
      let per_node s = s *. 1e6 /. float_of_int nodes in
      let check = median (Array.init 3 (fun _ -> secs (fun () -> R2.check d.r2))) in
      {
        name = d.doc_name;
        nodes;
        number_us = per_node (median m.(0));
        save_us = per_node (median m.(1));
        restore_us = per_node (median m.(2));
        check_us = per_node check;
      })
    docs samples

let find rows name = List.find (fun r -> r.name = name) rows

let write_json path rows ~ratio_xmark ~ratio_dblp ~scaling ~promotion =
  let oc = open_out path in
  let row r =
    Printf.sprintf
      "    {\"doc\": %S, \"nodes\": %d, \"number_us_per_node\": %.3f, \
       \"save_us_per_node\": %.3f, \"restore_us_per_node\": %.3f, \
       \"check_us_per_node\": %.3f}"
      r.name r.nodes r.number_us r.save_us r.restore_us r.check_us
  in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"E22\",\n\
     %s,\n\
    \  \"headline\": {\"restore_over_number_xmark_205k\": %.3f, \
     \"restore_over_number_dblp_240k\": %.3f, \
     \"number_scaling_205k_over_4k\": %.3f, \
     \"catalog_doc_over_elem_number\": %.3f},\n\
    \  \"docs\": [\n%s\n  ]\n}\n"
    (Report.meta_json ~knobs:[ ("max_area_size", max_area_size) ] ())
    ratio_xmark ratio_dblp scaling promotion
    (String.concat ",\n" (List.map row rows));
  close_out oc;
  Report.note "wrote %s" path

let run () =
  Report.section "E22  Numbering and restore cost per node";
  let rows = run_rows () in
  Report.table
    [ "doc"; "nodes"; "number us/node"; "save us/node"; "restore us/node";
      "check us/node" ]
    (List.map
       (fun r ->
         [
           r.name;
           Report.fint r.nodes;
           Printf.sprintf "%.3f" r.number_us;
           Printf.sprintf "%.3f" r.save_us;
           Printf.sprintf "%.3f" r.restore_us;
           Printf.sprintf "%.3f" r.check_us;
         ])
       rows);
  let ratio name = let r = find rows name in r.restore_us /. r.number_us in
  let scaling =
    (find rows "xmark-205k").number_us /. (find rows "xmark-4k").number_us
  in
  Report.note "restore / number per node: %.2fx (xmark-205k), %.2fx (dblp-240k)"
    (ratio "xmark-205k") (ratio "dblp-240k");
  Report.note "number per node, xmark-205k over xmark-4k: %.2fx" scaling;
  let promotion =
    (find rows "catalog-4m-doc").number_us /. (find rows "catalog-4m-elem").number_us
  in
  Report.note "number per node, catalog from its document node over from its";
  Report.note "root element: %.2fx" promotion;
  Report.note "save is Persist.sidecar_to_bytes, restore Persist.sidecar_of_bytes";
  Report.note "without the XML parse; check (Ruid2.check) is reported only.";
  write_json "BENCH_number.json" rows ~ratio_xmark:(ratio "xmark-205k")
    ~ratio_dblp:(ratio "dblp-240k") ~scaling ~promotion
