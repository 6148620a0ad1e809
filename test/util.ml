(* Shared helpers for the test suite. *)

module Dom = Rxml.Dom

(* Tiny tree DSL: [t "a" [t "b" []]] builds <a><b/></a>. *)
let t tag children =
  let n = Dom.element tag in
  List.iter (Dom.append_child n) children;
  n

(* Ground-truth structural relation computed directly on the DOM. *)
let dom_relation root a b =
  if Dom.equal a b then Ruid.Rel.Self
  else if Dom.is_ancestor ~anc:a ~desc:b then Ruid.Rel.Ancestor
  else if Dom.is_ancestor ~anc:b ~desc:a then Ruid.Rel.Descendant
  else if Dom.document_order ~root a b < 0 then Ruid.Rel.Before
  else Ruid.Rel.After

(* Ground-truth axes computed directly on the DOM. *)
let dom_children n = n.Dom.children
let dom_descendants n = Dom.descendants n
let dom_ancestors n = Dom.ancestors n

let dom_siblings ~before n =
  match n.Dom.parent with
  | None -> []
  | Some p ->
    let idx = Dom.child_index n in
    List.filteri (fun i _ -> if before then i < idx else i > idx) p.Dom.children

let dom_preceding root n =
  List.filter (fun x -> dom_relation root x n = Ruid.Rel.Before) (Dom.preorder root)

let dom_following root n =
  List.filter (fun x -> dom_relation root x n = Ruid.Rel.After) (Dom.preorder root)

let serials nodes = List.map (fun n -> n.Dom.serial) nodes

let check_node_list msg expected actual =
  Alcotest.(check (list int)) msg (serials expected) (serials actual)

let rel = Alcotest.testable Ruid.Rel.pp Ruid.Rel.equal

(* Alcotest testable for ruid2 identifiers. *)
let rid = Alcotest.testable Ruid.Ruid2.pp_id Ruid.Ruid2.id_equal

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* A journal's family reduced to its member kinds, and the family a
   rotation to generation [g] leaves: the active segment, the pair
   [ckpt<g>] and the archive [seg<g>]. *)
let family_members wal = List.map fst (Rstorage.Wal.family wal)

let family_bound g =
  Rstorage.Wal.[ Active; Checkpoint_xml g; Checkpoint_sidecar g; Segment g ]
