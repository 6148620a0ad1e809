module Dom = Rxml.Dom
module M = Ruid.Mruid
module R2 = Ruid.Ruid2
module Shape = Rworkload.Shape
module Rng = Rworkload.Rng
open Util

let mid = Alcotest.testable M.pp_id M.id_equal

let test_small_doc () =
  let root = t "a" [ t "b" [ t "c" [] ]; t "d" [] ] in
  let m = M.build root in
  M.check_consistency m;
  (* A document this small is numbered by the top-level UID alone: the
     degenerate 1-level case, i.e. the original UID. *)
  Alcotest.(check int) "single level" 1 (M.levels m);
  Alcotest.(check (list string)) "ancestors of c"
    [ "{2}"; "{1}" ]
    (List.map M.id_to_string
       (M.rancestors m (M.id_of_node m (List.hd (List.hd root.Dom.children).Dom.children))))

let test_consistency_various () =
  List.iter
    (fun root ->
      let m = M.build ~max_area_size:8 ~top_size:8 root in
      M.check_consistency m)
    [
      Shape.generate ~seed:1 ~target:300 (Shape.Uniform { fanout_lo = 0; fanout_hi = 4 });
      Shape.chain ~depth:100 ();
      Shape.comb ~depth:15 ~width:6 ();
      Shape.generate ~seed:2 ~target:500 (Shape.Deep { fanout = 3; bias = 0.85 });
    ]

let test_relationship_oracle () =
  let root = Shape.generate ~seed:7 ~target:400 (Shape.Uniform { fanout_lo = 0; fanout_hi = 4 }) in
  let m = M.build ~max_area_size:6 ~top_size:10 root in
  Alcotest.(check bool) "at least 3 levels" true (M.levels m >= 3);
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let a = Shape.random_node rng root in
    let b = Shape.random_node rng root in
    Alcotest.check rel "relationship"
      (dom_relation root a b)
      (M.relationship m (M.id_of_node m a) (M.id_of_node m b))
  done

let test_parent_recursion_deep () =
  (* A chain forces many levels when areas and the top are kept tiny. *)
  let root = Shape.chain ~depth:200 () in
  let m = M.build ~max_levels:12 ~max_area_size:4 ~top_size:4 root in
  Alcotest.(check bool) "several levels" true (M.levels m >= 4);
  M.check_consistency m;
  let deepest = List.nth (Dom.preorder root) 200 in
  Alcotest.(check int) "full ancestor chain" 200
    (List.length (M.rancestors m (M.id_of_node m deepest)))

(* The scalability headline: documents whose 2-level numbering overflows
   native integers are numbered by a few levels of small components. *)
let test_beyond_two_levels () =
  let root = Shape.comb ~depth:12 ~width:200 () in
  (match R2.number root with
  | exception Ruid.Uid.Overflow -> ()
  | _ -> Alcotest.fail "expected the 2-level numbering to overflow");
  let m = M.build root in
  M.check_consistency m;
  Alcotest.(check bool) "needs > 2 levels" true (M.levels m > 2);
  Alcotest.(check bool)
    (Printf.sprintf "components stay small (%d bits)" (M.max_component_bits m))
    true
    (M.max_component_bits m <= 32)

(* [max_levels] is the number of levels the numbering may reach, in the
   paper's counting: 2 — the smallest — is a 2-level ruid, and every
   budget up to the depth the tree partitions to (4 levels here, where the
   frame becomes one area) is met exactly. *)
let test_level_budget () =
  let root = Shape.generate ~seed:9 ~target:400 (Shape.Uniform { fanout_lo = 1; fanout_hi = 3 }) in
  List.iter
    (fun max_levels ->
      let m = M.build ~max_levels ~max_area_size:8 ~top_size:1 root in
      M.check_consistency m;
      Alcotest.(check int)
        (Printf.sprintf "max_levels %d" max_levels)
        (min max_levels 4) (M.levels m))
    [ 2; 3; 4; 5; 7 ]

let test_node_of_id_rejects_garbage () =
  let root = Shape.generate ~seed:3 ~target:100 (Shape.Uniform { fanout_lo = 1; fanout_hi = 3 }) in
  let m = M.build ~max_area_size:8 root in
  let i = M.id_of_node m root in
  Alcotest.(check bool) "root resolves" true (M.node_of_id m i <> None);
  let bogus = { i with M.top = i.M.top + 7777 } in
  Alcotest.(check bool) "bogus top rejected" true (M.node_of_id m bogus = None)

let test_doc_root_id_shape () =
  let root = Shape.generate ~seed:11 ~target:300 (Shape.Uniform { fanout_lo = 1; fanout_hi = 3 }) in
  let m = M.build ~max_area_size:6 ~top_size:8 root in
  let i = M.id_of_node m root in
  Alcotest.(check int) "top is 1" 1 i.M.top;
  Alcotest.(check bool) "all components are (1, true)" true
    (List.for_all (fun c -> c.M.index = 1 && c.M.is_root) i.M.comps);
  Alcotest.(check (option mid)) "root has no parent" None (M.rparent m i)

let prop_consistency_random =
  Util.qtest ~count:25 "mruid consistent on random trees"
    QCheck.(pair (int_range 5 300) (int_range 2 12))
    (fun (n, area) ->
      let root =
        Shape.generate ~seed:(n * 131 + area) ~target:n
          (Shape.Uniform { fanout_lo = 0; fanout_hi = 5 })
      in
      let m = M.build ~max_area_size:area ~top_size:area root in
      M.check_consistency m;
      true)

(* Scale: a 50k-node deeply recursive document partitions in well under a
   second (the Section 2.3 adjustment is near-linear) and numbers with a
   few levels of small components even though its 2-level form overflows
   native integers. *)
let test_scale_50k () =
  let root =
    Shape.generate ~seed:10 ~target:50_000 (Shape.Deep { fanout = 2; bias = 0.9 })
  in
  let t0 = Unix.gettimeofday () in
  let m = M.build root in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "built in %.2fs" elapsed)
    true (elapsed < 10.);
  Alcotest.(check bool) "components stay small" true
    (M.max_component_bits m <= 32);
  (* Spot-check instead of full consistency (which is O(n * depth)). *)
  let rng = Rng.create 4 in
  for _ = 1 to 200 do
    let n = Shape.random_node rng root in
    let i = M.id_of_node m n in
    match (M.rparent m i, n.Dom.parent) with
    | None, None -> ()
    | Some p, Some dp ->
      Alcotest.(check bool) "rparent agrees" true
        (M.id_equal p (M.id_of_node m dp))
    | _ -> Alcotest.fail "parent mismatch"
  done

let suite =
  [
    Alcotest.test_case "small document" `Quick test_small_doc;
    Alcotest.test_case "50k-node deep document" `Quick test_scale_50k;
    Alcotest.test_case "consistency across shapes" `Quick test_consistency_various;
    Alcotest.test_case "relationship oracle" `Quick test_relationship_oracle;
    Alcotest.test_case "deep recursion through levels" `Quick test_parent_recursion_deep;
    Alcotest.test_case "beyond 2-level capacity" `Quick test_beyond_two_levels;
    Alcotest.test_case "level budget is met exactly" `Quick test_level_budget;
    Alcotest.test_case "garbage identifiers rejected" `Quick test_node_of_id_rejects_garbage;
    Alcotest.test_case "document root identifier" `Quick test_doc_root_id_shape;
    prop_consistency_random;
  ]
