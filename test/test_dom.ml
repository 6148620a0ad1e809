module Dom = Rxml.Dom
open Util

let sample () =
  (* <a><b><d/><e/></b><c/></a> *)
  let d = Dom.element "d" and e = Dom.element "e" in
  let b = t "b" [] and c = t "c" [] in
  Dom.append_child b d;
  Dom.append_child b e;
  let a = t "a" [] in
  Dom.append_child a b;
  Dom.append_child a c;
  (a, b, c, d, e)

let test_structure () =
  let a, b, c, d, e = sample () in
  Alcotest.(check int) "size" 5 (Dom.size a);
  Alcotest.(check int) "degree a" 2 (Dom.degree a);
  check_node_list "preorder" [ a; b; d; e; c ] (Dom.preorder a);
  check_node_list "descendants" [ b; d; e; c ] (Dom.descendants a);
  check_node_list "ancestors of d" [ b; a ] (Dom.ancestors d);
  Alcotest.(check int) "depth of e" 2 (Dom.depth_of e);
  Alcotest.(check int) "child_index c" 1 (Dom.child_index c)

let test_is_ancestor () =
  let a, b, c, d, _ = sample () in
  Alcotest.(check bool) "a anc d" true (Dom.is_ancestor ~anc:a ~desc:d);
  Alcotest.(check bool) "b anc d" true (Dom.is_ancestor ~anc:b ~desc:d);
  Alcotest.(check bool) "c not anc d" false (Dom.is_ancestor ~anc:c ~desc:d);
  Alcotest.(check bool) "not reflexive" false (Dom.is_ancestor ~anc:a ~desc:a)

let test_document_order () =
  let a, b, c, d, e = sample () in
  Alcotest.(check bool) "b < c" true (Dom.document_order ~root:a b c < 0);
  Alcotest.(check bool) "d < e" true (Dom.document_order ~root:a d e < 0);
  Alcotest.(check bool) "e < c" true (Dom.document_order ~root:a e c < 0);
  Alcotest.(check int) "self" 0 (Dom.document_order ~root:a d d)

let test_insert_remove () =
  let a, b, _, _, _ = sample () in
  let x = Dom.element "x" in
  Dom.insert_child a ~pos:1 x;
  Alcotest.(check int) "x at position 1" 1 (Dom.child_index x);
  Alcotest.(check int) "degree grew" 3 (Dom.degree a);
  Dom.remove_child a x;
  Alcotest.(check int) "degree restored" 2 (Dom.degree a);
  Alcotest.(check bool) "x detached" true (x.Dom.parent = None);
  (* Insert clamps out-of-range positions. *)
  let y = Dom.element "y" in
  Dom.insert_child b ~pos:99 y;
  Alcotest.(check int) "clamped to end" 2 (Dom.child_index y);
  Alcotest.check_raises "double attach"
    (Invalid_argument "Dom.append_child: child already attached") (fun () ->
      Dom.append_child a y)

let test_attrs () =
  let n = Dom.element ~attrs:[ ("id", "1") ] "x" in
  Alcotest.(check (option string)) "read" (Some "1") (Dom.attr n "id");
  Dom.set_attr n "id" "2";
  Dom.set_attr n "lang" "en";
  Alcotest.(check (option string)) "overwritten" (Some "2") (Dom.attr n "id");
  Alcotest.(check (option string)) "added" (Some "en") (Dom.attr n "lang");
  Alcotest.(check (option string)) "missing" None (Dom.attr n "none")

let test_text_content () =
  let p = t "p" [] in
  Dom.append_child p (Dom.text "hello ");
  let em = t "em" [] in
  Dom.append_child em (Dom.text "wor");
  Dom.append_child p em;
  Dom.append_child p (Dom.text "ld");
  Alcotest.(check string) "concatenated" "hello world" (Dom.text_content p)

let test_serial_stability () =
  let a, b, _, _, _ = sample () in
  let s = b.Dom.serial in
  let x = Dom.element "x" in
  Dom.insert_child a ~pos:0 x;
  Alcotest.(check int) "serial survives edits" s b.Dom.serial

let prop_preorder_size =
  Util.qtest "preorder length = size" QCheck.(int_range 1 200) (fun n ->
      let root = Rworkload.Shape.generate ~seed:n ~target:n (Rworkload.Shape.Uniform { fanout_lo = 0; fanout_hi = 4 }) in
      List.length (Dom.preorder root) = Dom.size root)

let prop_ancestor_antisymmetric =
  Util.qtest "ancestor relation is antisymmetric" QCheck.(int_range 2 100) (fun n ->
      let root = Rworkload.Shape.generate ~seed:(n * 7) ~target:n (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 3 }) in
      let rng = Rworkload.Rng.create n in
      let a = Rworkload.Shape.random_node rng root in
      let b = Rworkload.Shape.random_node rng root in
      not (Dom.is_ancestor ~anc:a ~desc:b && Dom.is_ancestor ~anc:b ~desc:a))

(* Two domains building trees at once (a commit pipeline cloning a
   snapshot while a writer clones its master) must never draw the same
   serial: serial-keyed tables would conflate the two nodes. *)
let test_serials_unique_across_domains () =
  let n = 50_000 in
  let build () = List.init n (fun _ -> (Dom.element "x").Dom.serial) in
  let other = Domain.spawn build in
  let mine = build () in
  let seen = Hashtbl.create (4 * n) in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s then Alcotest.failf "serial %d issued twice" s;
      Hashtbl.replace seen s ())
    (mine @ Domain.join other)

let suite =
  [
    Alcotest.test_case "structure accessors" `Quick test_structure;
    Alcotest.test_case "is_ancestor" `Quick test_is_ancestor;
    Alcotest.test_case "document_order" `Quick test_document_order;
    Alcotest.test_case "insert/remove" `Quick test_insert_remove;
    Alcotest.test_case "attributes" `Quick test_attrs;
    Alcotest.test_case "text_content" `Quick test_text_content;
    Alcotest.test_case "serial stability" `Quick test_serial_stability;
    Alcotest.test_case "serials unique across domains" `Quick
      test_serials_unique_across_domains;
    prop_preorder_size;
    prop_ancestor_antisymmetric;
  ]
