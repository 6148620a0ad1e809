module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module Rel = Ruid.Rel

type strategy = Auto | Range | Arith | Walk

let strategy_name = function
  | Auto -> "auto"
  | Range -> "range"
  | Arith -> "arith"
  | Walk -> "walk"

(* Cost model for a name test on an unbounded axis, in node-visit units.
   [card] is the tag's posting cardinality, [scope] the number of nodes the
   axis can reach (exact for descendant thanks to the extents), [total] the
   document size.

   - range: two binary searches over the posting array plus emitting the
     expected output (postings spread uniformly over the document);
   - arith: one Rel.relationship decision per posted node, each a short
     identifier-arithmetic walk (charged [c_rel] units);
   - walk: generate the axis and test the tag on every generated node. *)
let c_rel = 8.

let choose ~card ~scope ~total =
  if card = 0 then Range
  else begin
    let cardf = float_of_int card and scopef = float_of_int scope in
    let est_out = cardf *. scopef /. float_of_int (max 1 total) in
    let range = (2. *. Float.log2 (cardf +. 1.)) +. est_out in
    let arith = cardf *. c_rel in
    let walk = scopef in
    if range <= arith && range <= walk then Range
    else if arith <= walk then Arith
    else Walk
  end

let create ?(strategy = Auto) ?index r2 =
  let root = R2.root r2 in
  let idx = match index with Some i -> i | None -> Doc_index.build r2 in
  let total = Doc_index.size idx in
  let id n = R2.id_of_node r2 n in
  (* Candidate lists for the arithmetic strategy, read from the shared
     postings per step: the strategy visits every candidate anyway, and
     [create] stays O(1), so a published version costs no per-tag copy.
     The closure captures only immutable state, so one engine may serve
     concurrent reader domains without locking. *)
  let by_tag tag =
    Array.fold_right
      (fun k acc -> Ruid.Order_index.node (Doc_index.order idx) k :: acc)
      (Doc_index.postings idx tag) []
  in
  let pos k = Doc_index.approx_rank idx k in
  let compare_order a b = Doc_index.compare_order idx a b in
  let axis (a : Ast.axis) n =
    match a with
    | Ast.Self -> [ n ]
    | Ast.Child -> R2.children r2 n
    | Ast.Descendant -> Doc_index.descendants idx n
    | Ast.Descendant_or_self -> n :: Doc_index.descendants idx n
    | Ast.Parent -> (
      match R2.parent_node r2 n with Some p -> [ p ] | None -> [])
    | Ast.Ancestor -> R2.ancestors r2 n
    | Ast.Ancestor_or_self -> n :: R2.ancestors r2 n
    | Ast.Following_sibling -> R2.following_siblings r2 n
    | Ast.Preceding_sibling -> List.rev (R2.preceding_siblings r2 n)
    | Ast.Following -> Doc_index.following idx n
    | Ast.Preceding -> Doc_index.preceding idx n
    | Ast.Attribute -> invalid_arg "Engine_ruid: attribute axis"
  in
  (* Name tests on unbounded axes.  Three live strategies:
     - Range: binary-search the tag's rank-sorted posting array against the
       context extent (contiguous slice for descendant, suffix/prefix for
       following/preceding) — O(log card + output);
     - Arith: the paper's Section 3.5 strategy — take the posting list and
       decide membership per candidate by identifier arithmetic alone;
     - Walk: decline ([None]), letting the evaluator generate the axis and
       test the tag per generated node.
     [Auto] picks per step by the cost model above, replacing the seed's
     hard-coded 256-candidate threshold. *)
  let named_axis (a : Ast.axis) tag n =
    let rel_filter want =
      let nid = id n in
      List.filter (fun c -> Rel.equal (R2.relationship r2 (id c) nid) want)
        (by_tag tag)
    in
    let card = Doc_index.cardinality idx tag in
    let pick ~scope =
      match strategy with Auto -> choose ~card ~scope ~total | s -> s
    in
    match a with
    | Ast.Descendant -> (
      let k = Doc_index.key idx n in
      match pick ~scope:(pos (Ruid.Order_index.last (Doc_index.order idx) k) - pos k) with
      | Range -> Some (Doc_index.descendants_by_tag idx n tag)
      | Arith -> Some (rel_filter Rel.Descendant)
      | Walk | Auto -> None)
    | Ast.Following -> (
      let e = Ruid.Order_index.last (Doc_index.order idx) (Doc_index.key idx n) in
      match pick ~scope:(total - 1 - pos e) with
      | Range -> Some (Doc_index.following_by_tag idx n tag)
      | Arith -> Some (rel_filter Rel.After)
      | Walk | Auto -> None)
    | Ast.Preceding -> (
      match pick ~scope:(pos (Doc_index.key idx n)) with
      | Range -> Some (Doc_index.preceding_by_tag idx n tag)
      | Arith -> Some (List.rev (rel_filter Rel.Before))
      | Walk | Auto -> None)
    | Ast.Ancestor ->
      (* rancestor, then tag filter: O(depth) identifiers either way. *)
      Some (List.filter (fun x -> Dom.tag x = tag) (R2.ancestors r2 n))
    | Ast.Child | Ast.Parent | Ast.Self | Ast.Descendant_or_self
    | Ast.Ancestor_or_self | Ast.Following_sibling | Ast.Preceding_sibling
    | Ast.Attribute -> None
  in
  {
    Eval.root;
    axis;
    named_axis;
    compare_order;
    (* A node outside the snapshot is a hard error (Doc_index.rank raises),
       not a silent max_int sort key. *)
    rank_of = (fun n -> Some (Doc_index.key idx n));
  }
