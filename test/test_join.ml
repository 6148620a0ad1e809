module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module J = Rjoin.Structural_join
module Shape = Rworkload.Shape
module Rng = Rworkload.Rng
open Util

(* DOM oracle: all ancestor-descendant pairs between two node lists. *)
let oracle_pairs anc desc =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun d ->
          if Dom.is_ancestor ~anc:a ~desc:d then Some (a.Dom.serial, d.Dom.serial)
          else None)
        desc)
    anc
  |> List.sort Stdlib.compare

let pairs_serials ps =
  List.map (fun p -> (p.J.anc.Dom.serial, p.J.desc.Dom.serial)) ps
  |> List.sort Stdlib.compare

let by_tag root tag = List.filter (fun n -> Dom.tag n = tag) (Dom.preorder root)

let setup seed n =
  let root =
    Shape.generate ~seed ~tags:[| "a"; "b"; "c" |] ~target:n
      (Shape.Uniform { fanout_lo = 0; fanout_hi = 4 })
  in
  let r2 = R2.number ~max_area_size:12 root in
  let pp = Baselines.Prepost.build root in
  (root, r2, pp)

let test_small_known () =
  (* <a><b><a/><c/></b><a><c/></a></a> *)
  let inner_a1 = t "a" [] and c1 = t "c" [] in
  let b = t "b" [] in
  Dom.append_child b inner_a1;
  Dom.append_child b c1;
  let c2 = t "c" [] in
  let inner_a2 = t "a" [] in
  Dom.append_child inner_a2 c2;
  let root = t "a" [] in
  Dom.append_child root b;
  Dom.append_child root inner_a2;
  let r2 = R2.number ~max_area_size:3 root in
  let anc = by_tag root "a" and desc = by_tag root "c" in
  let got = J.ancestor_probe r2 ~anc ~desc in
  (* c1 under root and... c1's ancestors: b, root. tag-a ancestors: root.
     c2's ancestors: inner_a2, root. *)
  Alcotest.(check int) "three pairs" 3 (List.length got);
  Alcotest.(check (list (pair int int))) "pairs match oracle"
    (oracle_pairs anc desc) (pairs_serials got)

let test_algorithms_agree () =
  List.iter
    (fun seed ->
      let root, r2, pp = setup seed 200 in
      List.iter
        (fun (anc_tag, desc_tag) ->
          let anc = by_tag root anc_tag and desc = by_tag root desc_tag in
          let expected = oracle_pairs anc desc in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "nested loop %s//%s" anc_tag desc_tag)
            expected
            (pairs_serials (J.nested_loop r2 ~anc ~desc));
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "ancestor probe %s//%s" anc_tag desc_tag)
            expected
            (pairs_serials (J.ancestor_probe r2 ~anc ~desc));
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "stack tree %s//%s" anc_tag desc_tag)
            expected
            (pairs_serials (J.stack_tree pp ~anc ~desc)))
        [ ("a", "b"); ("b", "c"); ("a", "a"); ("c", "b") ])
    [ 1; 2; 3 ]

let test_parent_child () =
  let root, r2, _ = setup 4 180 in
  let parent = by_tag root "a" and child = by_tag root "b" in
  let expected =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun c ->
            match c.Dom.parent with
            | Some pp when Dom.equal pp p -> Some (p.Dom.serial, c.Dom.serial)
            | _ -> None)
          child)
      parent
    |> List.sort Stdlib.compare
  in
  Alcotest.(check (list (pair int int))) "parent-child join" expected
    (pairs_serials (J.parent_child r2 ~parent ~child))

let test_empty_inputs () =
  let _, r2, pp = setup 5 50 in
  Alcotest.(check int) "empty anc" 0
    (List.length (J.ancestor_probe r2 ~anc:[] ~desc:(by_tag (R2.root r2) "a")));
  Alcotest.(check int) "empty desc" 0
    (List.length (J.stack_tree pp ~anc:(by_tag (R2.root r2) "a") ~desc:[]))

let test_self_join_excludes_self () =
  let root, r2, _ = setup 11 120 in
  let nodes = by_tag root "a" in
  List.iter
    (fun p ->
      Alcotest.(check bool) "no reflexive pair" false (Dom.equal p.J.anc p.J.desc))
    (J.ancestor_probe r2 ~anc:nodes ~desc:nodes)

let prop_agree_random =
  Util.qtest ~count:30 "join algorithms agree on random inputs"
    QCheck.(int_range 10 250)
    (fun n ->
      let root, r2, pp = setup (n * 13) n in
      let rng = Rng.create n in
      let sample frac =
        List.filter (fun _ -> Rng.float rng < frac) (Dom.preorder root)
      in
      let anc = sample 0.3 and desc = sample 0.4 in
      let a = pairs_serials (J.nested_loop r2 ~anc ~desc) in
      let b = pairs_serials (J.ancestor_probe r2 ~anc ~desc) in
      let c = pairs_serials (J.stack_tree pp ~anc ~desc) in
      a = b && b = c && a = oracle_pairs anc desc)

let suite =
  [
    Alcotest.test_case "small known join" `Quick test_small_known;
    Alcotest.test_case "algorithms agree" `Quick test_algorithms_agree;
    Alcotest.test_case "parent-child join" `Quick test_parent_child;
    Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
    Alcotest.test_case "self join excludes self" `Quick test_self_join_excludes_self;
    prop_agree_random;
  ]
