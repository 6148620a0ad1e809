(* Document-order index: ranks, extents, range-based name tests, the
   extent-merge join, and the strategy-forced engines — all checked against
   the DOM oracle / naive engine on randomized trees, including behaviour
   after structural updates (stale index hard errors, re-index agrees). *)

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module DI = Rxpath.Doc_index
module ER = Rxpath.Engine_ruid
module J = Rjoin.Structural_join
module Shape = Rworkload.Shape
module Rng = Rworkload.Rng
open Util

let setup seed n =
  let root =
    Shape.generate ~seed ~tags:[| "a"; "b"; "c"; "d" |] ~target:n
      (Shape.Uniform { fanout_lo = 0; fanout_hi = 4 })
  in
  let r2 = R2.number ~max_area_size:10 root in
  (root, r2, DI.build r2)

let test_ranks_and_extents () =
  let root, _, idx = setup 3 300 in
  let pre = Dom.preorder root in
  Alcotest.(check int) "size" (List.length pre) (DI.size idx);
  List.iteri
    (fun i n ->
      Alcotest.(check int) "rank = preorder position" i (DI.rank idx n);
      Alcotest.(check bool) "node_at inverts rank" true
        (Dom.equal n (DI.node_at idx i));
      let r, e = DI.extent idx n in
      Alcotest.(check int) "extent covers the subtree" (Dom.size n) (e - r + 1))
    pre;
  (* Two-comparison relationship tests agree with the DOM oracle. *)
  let nodes = Array.of_list pre in
  let rng = Rng.create 7 in
  for _ = 1 to 500 do
    let a = Rng.pick rng nodes and b = Rng.pick rng nodes in
    let ra, ea = DI.extent idx a and rb, _ = DI.extent idx b in
    Alcotest.(check bool) "descendant test" (Dom.is_ancestor ~anc:a ~desc:b)
      (ra < rb && rb <= ea)
  done

let test_range_name_tests () =
  List.iter
    (fun seed ->
      let root, _, idx = setup seed 250 in
      let rng = Rng.create (seed * 17) in
      let nodes = Array.of_list (Dom.preorder root) in
      for _ = 1 to 40 do
        let n = Rng.pick rng nodes in
        let tag = [| "a"; "b"; "c"; "d" |].(Rng.int rng 4) in
        let with_tag l = List.filter (fun x -> Dom.tag x = tag) l in
        check_node_list "descendant::tag"
          (with_tag (Dom.descendants n))
          (DI.descendants_by_tag idx n tag);
        check_node_list "following::tag"
          (with_tag (dom_following root n))
          (DI.following_by_tag idx n tag);
        check_node_list "preceding::tag"
          (List.rev (with_tag (dom_preceding root n)))
          (DI.preceding_by_tag idx n tag)
      done)
    [ 11; 12; 13 ]

let queries =
  [
    "//a"; "//a//b"; "//b/c"; "//a/descendant::c"; "//c/following::b";
    "//c/preceding::a"; "//b/ancestor::a"; "//a[b]/c"; "//d/following::d";
    "/descendant::b/preceding::c";
  ]

let check_engines_agree msg root r2 =
  let naive = Rxpath.Engine_naive.create root in
  List.iter
    (fun strategy ->
      let eng = ER.create ~strategy r2 in
      List.iter
        (fun q ->
          check_node_list
            (Printf.sprintf "%s: %s [%s]" msg q (ER.strategy_name strategy))
            (Rxpath.Eval.query naive q) (Rxpath.Eval.query eng q))
        queries)
    [ ER.Auto; ER.Range; ER.Arith; ER.Walk ]

let test_strategies_agree () =
  List.iter
    (fun seed ->
      let root, r2, _ = setup seed 200 in
      check_engines_agree "fresh" root r2)
    [ 21; 22; 23 ]

let test_extent_merge () =
  List.iter
    (fun seed ->
      let root, r2, idx = setup seed 220 in
      let by_tag tag =
        List.filter (fun n -> Dom.tag n = tag) (Dom.preorder root)
      in
      let pp = Baselines.Prepost.build root in
      List.iter
        (fun (anc_tag, desc_tag) ->
          let anc = by_tag anc_tag and desc = by_tag desc_tag in
          let serials ps =
            List.map (fun p -> (p.J.anc.Dom.serial, p.J.desc.Dom.serial)) ps
          in
          let got = J.extent_merge ~extent:(DI.extent idx) ~anc ~desc in
          (* Same multiset as the other three algorithms... *)
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "extent_merge = nested %s//%s" anc_tag desc_tag)
            (List.sort Stdlib.compare (serials (J.nested_loop r2 ~anc ~desc)))
            (List.sort Stdlib.compare (serials got));
          (* ...and the same normalized order as stack_tree and the probe. *)
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "extent_merge order %s//%s" anc_tag desc_tag)
            (serials (J.stack_tree pp ~anc ~desc))
            (serials got);
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "probe order %s//%s" anc_tag desc_tag)
            (serials (J.ancestor_probe r2 ~anc ~desc))
            (serials got))
        [ ("a", "b"); ("b", "c"); ("a", "a"); ("d", "b") ])
    [ 31; 32 ]

let test_stale_index_hard_error () =
  let root, r2, idx = setup 41 120 in
  let fresh = Dom.element "zz" in
  let _changed = R2.insert_node r2 ~parent:root ~pos:0 fresh in
  Alcotest.check_raises "stale rank raises"
    (Invalid_argument "Doc_index: node outside the indexed snapshot")
    (fun () -> ignore (DI.rank idx fresh));
  (* A node from an unrelated document is equally foreign. *)
  let other = Shape.generate ~seed:1 ~target:20
      (Shape.Uniform { fanout_lo = 0; fanout_hi = 2 }) in
  Alcotest.(check (option int)) "foreign node has no rank" None
    (DI.rank_opt idx other);
  Alcotest.(check bool) "mem is false for foreign nodes" false
    (DI.mem idx other)

let test_reindex_after_update () =
  let root, r2, _ = setup 51 150 in
  let rng = Rng.create 52 in
  (* A few inserts and a delete, then a fresh index over the same r2. *)
  for i = 1 to 5 do
    let parent = Shape.random_internal rng root in
    ignore (R2.insert_node r2 ~parent ~pos:0 (Dom.element (Printf.sprintf "n%d" i)))
  done;
  (match root.Dom.children with
  | victim :: _ -> ignore (R2.delete_subtree r2 victim)
  | [] -> ());
  R2.check_consistency r2;
  let idx = DI.build r2 in
  let pre = Dom.preorder root in
  Alcotest.(check int) "re-index covers the updated tree" (List.length pre)
    (DI.size idx);
  List.iteri
    (fun i n -> Alcotest.(check int) "re-ranked" i (DI.rank idx n))
    pre;
  (* Engines rebuilt after the update agree with naive on the new tree. *)
  check_engines_agree "post-update" root r2

let test_postings_cached () =
  let root, _, idx = setup 61 200 in
  let expected tag =
    List.length (List.filter (fun n -> Dom.tag n = tag) (Dom.preorder root))
  in
  List.iter
    (fun tag ->
      Alcotest.(check int) ("cardinality " ^ tag) (expected tag)
        (DI.cardinality idx tag);
      check_node_list ("postings in document order " ^ tag)
        (List.filter (fun n -> Dom.tag n = tag) (Dom.preorder root))
        (List.map
           (Ruid.Order_index.node (DI.order idx))
           (Array.to_list (DI.postings idx tag))))
    [ "a"; "b"; "c"; "d"; "nosuch" ]

let prop_engine_agree_random =
  Util.qtest ~count:25 "strategy engines agree on random trees"
    QCheck.(int_range 20 300)
    (fun n ->
      let root, r2, _ = setup (n * 7) n in
      let naive = Rxpath.Engine_naive.create root in
      List.for_all
        (fun strategy ->
          let eng = ER.create ~strategy r2 in
          List.for_all
            (fun q ->
              serials (Rxpath.Eval.query naive q)
              = serials (Rxpath.Eval.query eng q))
            queries)
        [ ER.Auto; ER.Range; ER.Arith; ER.Walk ])

let prop_extent_merge_random =
  Util.qtest ~count:25 "extent_merge matches the DOM oracle"
    QCheck.(int_range 10 250)
    (fun n ->
      let root, r2, idx = setup (n * 13) n in
      let rng = Rng.create n in
      let sample frac =
        List.filter (fun _ -> Rng.float rng < frac) (Dom.preorder root)
      in
      let anc = sample 0.3 and desc = sample 0.4 in
      let oracle =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun d ->
                if Dom.is_ancestor ~anc:a ~desc:d then
                  Some (a.Dom.serial, d.Dom.serial)
                else None)
              desc)
          anc
        |> List.sort Stdlib.compare
      in
      let got =
        J.extent_merge ~extent:(DI.extent idx) ~anc ~desc
        |> List.map (fun p -> (p.J.anc.Dom.serial, p.J.desc.Dom.serial))
        |> List.sort Stdlib.compare
      in
      got = oracle
      && got
         = (J.ancestor_probe r2 ~anc ~desc
           |> List.map (fun p -> (p.J.anc.Dom.serial, p.J.desc.Dom.serial))
           |> List.sort Stdlib.compare))

let suite =
  [
    Alcotest.test_case "ranks and extents" `Quick test_ranks_and_extents;
    Alcotest.test_case "range name tests" `Quick test_range_name_tests;
    Alcotest.test_case "strategy engines agree" `Quick test_strategies_agree;
    Alcotest.test_case "extent merge join" `Quick test_extent_merge;
    Alcotest.test_case "stale index hard error" `Quick test_stale_index_hard_error;
    Alcotest.test_case "re-index after update" `Quick test_reindex_after_update;
    Alcotest.test_case "postings cached" `Quick test_postings_cached;
    prop_engine_agree_random;
    prop_extent_merge_random;
  ]
