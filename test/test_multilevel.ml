(* The multilevel identifier of Section 2.4 (Definition 4, Example 3) and
   the Section 3.1 capacity law, through Mruid — the one multilevel form —
   at a fixed level budget. *)

module Dom = Rxml.Dom
module M = Ruid.Mruid
module B = Bignum.Bignat
module Shape = Rworkload.Shape
module Rng = Rworkload.Rng
open Util

let mid = Alcotest.testable M.pp_id M.id_equal

(* [top_size:1] keeps partitioning until the level budget or a
   single-area frame stops it. *)
let build ~levels ~area root =
  M.build ~max_levels:levels ~max_area_size:area ~top_size:1 root

let test_levels_counting () =
  (* A tiny tree fits one area: the top-level UID alone numbers it. *)
  let small = t "a" [ t "b" [] ] in
  Alcotest.(check int) "small doc stays 1-level" 1 (M.levels (build ~levels:3 ~area:8 small));
  let big = Shape.generate ~seed:1 ~target:600 (Shape.Uniform { fanout_lo = 1; fanout_hi = 4 }) in
  Alcotest.(check int) "large doc reaches 3 levels" 3 (M.levels (build ~levels:3 ~area:6 big))

let test_component_count_matches_levels () =
  let root = Shape.generate ~seed:4 ~target:500 (Shape.Uniform { fanout_lo = 1; fanout_hi = 4 }) in
  let m = build ~levels:4 ~area:5 root in
  let l = M.levels m in
  Alcotest.(check bool) "at least 3 levels" true (l >= 3);
  Dom.iter_preorder
    (fun n ->
      let i = M.id_of_node m n in
      Alcotest.(check int) "one component per level below the top" (l - 1)
        (List.length i.M.comps))
    root

(* Definition 4 / Example 3: the 3-level identifier refines the 2-level one
   by decomposing the top UID, keeping the base component unchanged. *)
let test_decomposition_consistency () =
  let root = Shape.generate ~seed:9 ~target:400 (Shape.Uniform { fanout_lo = 1; fanout_hi = 3 }) in
  let two = build ~levels:2 ~area:8 root in
  let three = build ~levels:3 ~area:8 root in
  Alcotest.(check (pair int int)) "2 and 3 levels" (2, 3)
    (M.levels two, M.levels three);
  let last i = List.nth i.M.comps (List.length i.M.comps - 1) in
  Dom.iter_preorder
    (fun n ->
      Alcotest.(check bool) "base component preserved" true
        (last (M.id_of_node two n) = last (M.id_of_node three n)))
    root

let test_round_trip () =
  let root = Shape.generate ~seed:21 ~target:700 (Shape.Uniform { fanout_lo = 0; fanout_hi = 5 }) in
  let m = build ~levels:3 ~area:7 root in
  M.check_consistency m;
  Dom.iter_preorder
    (fun n ->
      match M.node_of_id m (M.id_of_node m n) with
      | Some x -> Alcotest.(check int) "round trip" n.Dom.serial x.Dom.serial
      | None -> Alcotest.fail "identifier did not resolve")
    root

let test_parent () =
  let root = Shape.generate ~seed:33 ~target:300 (Shape.Uniform { fanout_lo = 1; fanout_hi = 4 }) in
  let m = build ~levels:3 ~area:6 root in
  Dom.iter_preorder
    (fun n ->
      match (M.rparent m (M.id_of_node m n), n.Dom.parent) with
      | None, None -> ()
      | Some p, Some dp -> Alcotest.check mid "parent id" (M.id_of_node m dp) p
      | Some _, None -> Alcotest.fail "root got a parent"
      | None, Some _ -> Alcotest.fail "lost a parent")
    root

let test_relationship_oracle () =
  let root = Shape.generate ~seed:41 ~target:250 (Shape.Uniform { fanout_lo = 0; fanout_hi = 4 }) in
  let m = build ~levels:3 ~area:5 root in
  let rng = Rng.create 12 in
  for _ = 1 to 150 do
    let a = Shape.random_node rng root in
    let b = Shape.random_node rng root in
    Alcotest.check rel "relationship"
      (dom_relation root a b)
      (M.relationship m (M.id_of_node m a) (M.id_of_node m b))
  done

let test_updates_through_multilevel () =
  let root = Shape.generate ~seed:55 ~target:200 (Shape.Uniform { fanout_lo = 0; fanout_hi = 4 }) in
  let m = build ~levels:3 ~area:8 root in
  Alcotest.(check int) "3 levels" 3 (M.levels m);
  let rng = Rng.create 3 in
  for _ = 1 to 30 do
    let parent = Shape.random_node rng root in
    let pos = Rng.int rng (Dom.degree parent + 1) in
    ignore (M.insert_node m ~parent ~pos (Dom.element "ins"))
  done;
  M.check_consistency m;
  (* identifiers still resolve and relations hold *)
  for _ = 1 to 60 do
    let a = Shape.random_node rng root in
    let b = Shape.random_node rng root in
    Alcotest.check rel "post-update relationship"
      (dom_relation root a b)
      (M.relationship m (M.id_of_node m a) (M.id_of_node m b))
  done

let test_addressable () =
  Alcotest.(check string) "e^m" "1000000" (B.to_string (M.addressable ~e:100 ~levels:3));
  (* Section 3.1: with e = 2^61 per level, 2 levels cover 2^122 nodes. *)
  Alcotest.(check int) "2 levels of 61-bit UIDs" 123
    (B.bit_length (M.addressable ~e:2305843009213693952 ~levels:2))

let test_component_bits_bounded () =
  (* Individual indices stay small even where flat UID blows up: a wide
     DBLP-like document. *)
  let root = Rworkload.Dblp.generate ~seed:2 ~publications:400 in
  let m = M.build ~max_area_size:16 root in
  Alcotest.(check bool)
    (Printf.sprintf "component bits %d stay small" (M.max_component_bits m))
    true
    (M.max_component_bits m <= 24)

let test_pp () =
  (* Example 3's 3-level form of the 2-level identifier {8, (a, true)} *)
  let example3 =
    { M.top = 2;
      comps = [ { M.index = 4; is_root = false }; { M.index = 5; is_root = true } ] }
  in
  Alcotest.(check string) "Example 3" "{2, (4, false), (5, true)}"
    (M.id_to_string example3);
  (* a document small enough for the original UID alone *)
  let root = t "a" [ t "b" []; t "c" [] ] in
  let m = M.build root in
  Alcotest.(check string) "root renders" "{1}" (M.id_to_string (M.id_of_node m root))

let suite =
  [
    Alcotest.test_case "level counting" `Quick test_levels_counting;
    Alcotest.test_case "component count" `Quick test_component_count_matches_levels;
    Alcotest.test_case "Example 3: decomposition consistency" `Quick test_decomposition_consistency;
    Alcotest.test_case "identifier round trip" `Quick test_round_trip;
    Alcotest.test_case "parent derivation" `Quick test_parent;
    Alcotest.test_case "relationship oracle" `Quick test_relationship_oracle;
    Alcotest.test_case "updates" `Quick test_updates_through_multilevel;
    Alcotest.test_case "Section 3.1 capacity" `Quick test_addressable;
    Alcotest.test_case "component bits bounded" `Quick test_component_bits_bounded;
    Alcotest.test_case "identifier printing" `Quick test_pp;
  ]
