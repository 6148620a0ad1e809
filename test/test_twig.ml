(* Twig compilation from XPath, and twig matching, which runs in the
   planner, against the naive evaluator. *)

module Dom = Rxml.Dom
module Twig = Rxpath.Twig
module P = Rxpath.Planner
open Util

let setup () =
  let site = Rworkload.Xmark.generate ~seed:21 ~scale:1.0 in
  let doc = Dom.document () in
  Dom.append_child doc site;
  (P.create (Ruid.Ruid2.number ~max_area_size:16 doc), Rxpath.Engine_naive.create doc)

let twig_queries =
  [
    "//person[creditcard]/name";
    "//item[location]/name";
    "//open_auction[bidder]/seller";
    "//closed_auction[annotation//text]/price";
    "//item[description//listitem][quantity]/name";
    "//person[profile/interest]/emailaddress";
    "/site/regions/africa/item[name]";
    "//open_auction[bidder/increase]";
  ]

let non_twig_queries =
  [
    "//item[@id='x']/name";        (* attribute predicate *)
    "//item[position()=1]";        (* positional *)
    "//item[name or location]";    (* disjunction *)
    "//item/ancestor::regions";    (* reverse axis *)
    "//item[not(name)]";           (* negation *)
  ]

let test_compilation () =
  List.iter
    (fun q ->
      match Twig.of_xpath (Rxpath.Xparser.parse q) with
      | Some _ -> ()
      | None -> Alcotest.failf "%s should compile to a twig" q)
    twig_queries;
  List.iter
    (fun q ->
      match Twig.of_xpath (Rxpath.Xparser.parse q) with
      | None -> ()
      | Some _ -> Alcotest.failf "%s should not compile to a twig" q)
    non_twig_queries

let test_matches_evaluator () =
  let planner, naive = setup () in
  List.iter
    (fun q -> check_node_list q (Rxpath.Eval.query naive q) (P.query planner q))
    twig_queries

let test_structure () =
  let t =
    Option.get (Twig.of_xpath (Rxpath.Xparser.parse "//a[b//c][d]/e"))
  in
  let p = Twig.pattern t in
  Alcotest.(check string) "root tag" "a" p.Twig.tag;
  Alcotest.(check bool) "root edge descendant" true (p.Twig.edge = Twig.Descendant);
  Alcotest.(check int) "two branches" 2 (List.length p.Twig.branches);
  (match p.Twig.spine with
  | Some s ->
    Alcotest.(check string) "spine tag" "e" s.Twig.tag;
    Alcotest.(check bool) "spine edge child" true (s.Twig.edge = Twig.Child)
  | None -> Alcotest.fail "expected a spine");
  match p.Twig.branches with
  | [ b1; b2 ] ->
    Alcotest.(check string) "first branch" "b" b1.Twig.tag;
    (match b1.Twig.spine with
    | Some c ->
      Alcotest.(check string) "nested branch step" "c" c.Twig.tag;
      Alcotest.(check bool) "descendant edge" true (c.Twig.edge = Twig.Descendant)
    | None -> Alcotest.fail "expected b//c chain");
    Alcotest.(check string) "second branch" "d" b2.Twig.tag
  | _ -> Alcotest.fail "expected two branches"

let test_empty_results () =
  let planner, _ = setup () in
  Alcotest.(check int) "no matches" 0
    (List.length (P.query planner "//person[creditcard]/nonexistent"))

let prop_twig_matches_eval =
  Util.qtest ~count:25 "twigs agree with the evaluator on random documents"
    QCheck.(int_range 20 250)
    (fun n ->
      let root =
        Rworkload.Shape.generate ~seed:(n * 5) ~tags:[| "a"; "b"; "c"; "d" |]
          ~target:n
          (Rworkload.Shape.Uniform { fanout_lo = 0; fanout_hi = 4 })
      in
      let planner = P.create (Ruid.Ruid2.number ~max_area_size:8 root) in
      let naive = Rxpath.Engine_naive.create root in
      List.for_all
        (fun q ->
          serials (P.query planner q) = serials (Rxpath.Eval.query naive q))
        [ "//a[b]/c"; "//a[b//c]"; "//b[c][d]"; "//a[b/c]/d"; "//a[b]" ])

let suite =
  [
    Alcotest.test_case "compilation recognition" `Quick test_compilation;
    Alcotest.test_case "matches the evaluator" `Quick test_matches_evaluator;
    Alcotest.test_case "pattern structure" `Quick test_structure;
    Alcotest.test_case "empty results" `Quick test_empty_results;
    prop_twig_matches_eval;
  ]
