(* E9 — Structural joins (extension; Related Work section's containment
   literature).

   Ancestor-descendant joins over tag sets from an XMark-like document:
   the O(|A| x |D|) nested loop any scheme supports, the UID-family
   ancestor-probe (O(|D| x depth), driven by rparent arithmetic), and the
   stack-tree merge over interval labels (O(|A| + |D| + out), needs sorted
   inputs). *)

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module J = Rjoin.Structural_join

let twig_table site r2 =
  Report.subsection "E9.b  Twig patterns: planner vs full evaluator";
  let planner = Rxpath.Planner.create r2 in
  let naive = Rxpath.Engine_naive.create site in
  let rows =
    List.map
      (fun q ->
        let rn, tn = Report.time (fun () -> Rxpath.Eval.query naive q) in
        (* planned once first: the timing is the plan cache's warm path *)
        let kind = Rxpath.Planner.(kind_name (kind (plan planner q))) in
        let rt, tt = Report.time (fun () -> Rxpath.Planner.query planner q) in
        assert (List.length rn = List.length rt);
        [
          q; Report.fint (List.length rt);
          Report.fns (tn *. 1e9); Report.fns (tt *. 1e9); kind;
        ])
      [
        "//person[creditcard]/name";
        "//item[description//listitem][quantity]/name";
        "//open_auction[bidder/increase]/seller";
        "//closed_auction[annotation//text]/price";
      ]
  in
  Report.table [ "twig"; "matches"; "evaluator"; "planner"; "plan" ] rows;
  Report.note
    "Both sides verified equal; a twig join touches only the rank postings of";
  Report.note "the pattern's labels, never the tree."

let run () =
  Report.section "E9  Structural joins: nested loop vs ancestor probe vs stack-tree";
  let site = Rworkload.Xmark.generate ~seed:91 ~scale:8.0 in
  let r2 = R2.number ~max_area_size:64 site in
  let pp = Baselines.Prepost.build site in
  let by_tag tag =
    List.filter (fun n -> Dom.tag n = tag) (Dom.preorder site)
  in
  Report.note "document: xmark scale 8 (%d nodes)" (Dom.size site);
  let rows =
    List.map
      (fun (anc_tag, desc_tag) ->
        let anc = by_tag anc_tag and desc = by_tag desc_tag in
        let r_nested, t_nested =
          Report.time (fun () -> J.nested_loop r2 ~anc ~desc)
        in
        let r_probe, t_probe =
          Report.time (fun () -> J.ancestor_probe r2 ~anc ~desc)
        in
        let r_stack, t_stack =
          Report.time (fun () -> J.stack_tree pp ~anc ~desc)
        in
        assert (List.length r_nested = List.length r_probe);
        assert (List.length r_probe = List.length r_stack);
        [
          Printf.sprintf "%s//%s" anc_tag desc_tag;
          Report.fint (List.length anc);
          Report.fint (List.length desc);
          Report.fint (List.length r_probe);
          Report.fns (t_nested *. 1e9);
          Report.fns (t_probe *. 1e9);
          Report.fns (t_stack *. 1e9);
        ])
      [
        ("item", "text"); ("listitem", "text"); ("closed_auction", "listitem");
        ("open_auction", "increase"); ("regions", "name"); ("parlist", "parlist");
      ]
  in
  Report.table
    [ "join"; "|A|"; "|D|"; "pairs"; "nested loop"; "ancestor probe"; "stack-tree" ]
    rows;
  Report.note
    "Shape: the rparent-driven probe tracks |D| x depth and crushes the nested";
  Report.note
    "loop as |A| grows; stack-tree is the specialist's bound once inputs are";
  Report.note "sorted, which the probe never needs.";
  twig_table site r2
