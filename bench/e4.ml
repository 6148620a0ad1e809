(* E4 — Query evaluation speed (Section 3.5; observation O3).

   The same XPath queries over the same XMark-like document, evaluated by
   the naive DOM-walking engine, by the ruid engine (identifier arithmetic
   + tag postings) and by the cost-based planner, with the plan kind it
   picked (plan cache warm).  Wall-clock per query — the median of seven
   evaluations after a warm-up one, since a single call moves with the
   collector's state — plus a Bechamel round on three representative
   queries. *)

open Bechamel
module Eval = Rxpath.Eval

let reps = 7

(* The result of a warm-up call, and the median time of [reps] more. *)
let timed f =
  let r = f () in
  let ts = Array.init reps (fun _ -> snd (Report.time f)) in
  Array.sort compare ts;
  (r, ts.(reps / 2))

let run () =
  Report.section "E4  XPath evaluation: DOM walking vs ruid identifier arithmetic";
  let site = Rworkload.Xmark.generate ~seed:41 ~scale:5.0 in
  (* A document node on top lets absolute paths like /site/... resolve. *)
  let doc = Rxml.Dom.document () in
  Rxml.Dom.append_child doc site;
  let size = Rxml.Dom.size doc in
  let naive = Rxpath.Engine_naive.create doc in
  let r2 = Ruid.Ruid2.number ~max_area_size:64 doc in
  let ruid = Rxpath.Engine_ruid.create r2 in
  let planner = Rxpath.Planner.create r2 in
  Report.note "document: xmark scale 5 (%d nodes), %d UID-local areas" size
    (Ruid.Ruid2.area_count r2);
  Report.subsection "E4.a  per-query wall clock (median of 7 after a warm-up)";
  let rows =
    List.map
      (fun q ->
        let p = Rxpath.Xparser.parse q in
        let rn, tn = timed (fun () -> Eval.select naive p) in
        let rr, tr = timed (fun () -> Eval.select ruid p) in
        assert (List.length rn = List.length rr);
        let kind = Rxpath.Planner.(kind_name (kind (plan planner q))) in
        let rp, tp = timed (fun () -> Rxpath.Planner.query planner q) in
        assert (List.length rp = List.length rn);
        [
          q;
          Report.fint (List.length rn);
          Report.fns (tn *. 1e9);
          Report.fns (tr *. 1e9);
          Report.fns (tp *. 1e9);
          kind;
          Printf.sprintf "%.2fx" (tn /. tr);
        ])
      Rworkload.Xmark.queries
  in
  Report.table
    [ "query"; "results"; "naive"; "ruid"; "planner"; "plan"; "naive/ruid" ]
    rows;
  Report.note
    "Shape (O3): ruid is competitive everywhere and wins clearly on ancestor and";
  Report.note
    "preceding/following queries, where the tag index plus identifier arithmetic";
  Report.note "replaces a full-tree scan.";
  Report.subsection "E4.b  Bechamel on three representative queries";
  let bench name eng q =
    let p = Rxpath.Xparser.parse q in
    Test.make ~name (Staged.stage (fun () -> Eval.select eng p))
  in
  let tests =
    [
      bench "naive: //listitem/ancestor::item" naive "//listitem/ancestor::item";
      bench "ruid : //listitem/ancestor::item" ruid "//listitem/ancestor::item";
      bench "naive: //annotation/preceding::bidder" naive "//annotation/preceding::bidder";
      bench "ruid : //annotation/preceding::bidder" ruid "//annotation/preceding::bidder";
      bench "naive: //item[quantity>3]/name" naive "//item[quantity>3]/name";
      bench "ruid : //item[quantity>3]/name" ruid "//item[quantity>3]/name";
    ]
  in
  ignore (Micro.run_table ~quota:1.0 "steady-state time per evaluation" tests)
