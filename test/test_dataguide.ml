module Dom = Rxml.Dom
module G = Rsummary.Dataguide
module Shape = Rworkload.Shape
open Util

let sample () =
  Rxml.Parser.parse_string
    {|<site>
        <people><person><name/></person><person><name/><age/></person></people>
        <items><item><name/></item></items>
      </site>|}
  |> Dom.root_element

let test_structure () =
  let g = G.build (sample ()) in
  Alcotest.(check int) "document nodes" 10 (G.document_nodes g);
  (* Distinct paths: site, site/people, site/people/person,
     site/people/person/name, site/people/person/age, site/items,
     site/items/item, site/items/item/name. *)
  Alcotest.(check int) "guide nodes" 8 (G.guide_nodes g);
  Alcotest.(check int) "paths enumerated" 8 (List.length (G.paths g))

(* Each guide path counts its target set: the nodes the absolute XPath
   of the path selects. *)
let naive_count eng path =
  List.length (Rxpath.Eval.query eng ("/" ^ String.concat "/" path))

let engine_over root =
  let doc =
    match root.Dom.parent with
    | Some doc -> doc
    | None ->
      let doc = Dom.document () in
      Dom.append_child doc root;
      doc
  in
  Rxpath.Engine_naive.create doc

let test_targets () =
  let root = sample () in
  let g = G.build root in
  let eng = engine_over root in
  List.iter
    (fun (what, expected, path) ->
      Alcotest.(check int) what expected (G.count g path);
      Alcotest.(check int) (what ^ " (XPath)") expected (naive_count eng path))
    [
      ("two persons", 2, [ "site"; "people"; "person" ]);
      ("person names share a guide node", 2, [ "site"; "people"; "person"; "name" ]);
      ("item name distinct from person name", 1, [ "site"; "items"; "item"; "name" ]);
      ("absent path", 0, [ "site"; "nothing" ]);
    ];
  Alcotest.(check bool) "mem" true (G.mem g [ "site"; "people" ]);
  Alcotest.(check bool) "not mem" false (G.mem g [ "wrong" ])

let test_child_labels () =
  let g = G.build (sample ()) in
  Alcotest.(check (list string)) "completion at root" [ "people"; "items" ]
    (G.child_labels g [ "site" ]);
  Alcotest.(check (list string)) "completion under person" [ "name"; "age" ]
    (G.child_labels g [ "site"; "people"; "person" ])

(* Every guide path counts exactly the nodes the XPath evaluator selects
   for it. *)
let test_matches_xpath () =
  let root =
    Shape.generate ~seed:5 ~tags:[| "a"; "b"; "c" |] ~target:300
      (Shape.Uniform { fanout_lo = 0; fanout_hi = 4 })
  in
  let g = G.build root in
  let eng = engine_over root in
  List.iter
    (fun path ->
      Alcotest.(check int) (String.concat "/" path) (naive_count eng path)
        (G.count g path))
    (G.paths g)

let prop_guide_invariants =
  Util.qtest ~count:30 "guide target sets partition the document"
    QCheck.(int_range 2 200)
    (fun n ->
      let root =
        Shape.generate ~seed:(n * 3) ~tags:[| "a"; "b" |] ~target:n
          (Shape.Uniform { fanout_lo = 0; fanout_hi = 3 })
      in
      let g = G.build root in
      let eng = engine_over root in
      let paths = G.paths g in
      let total = List.fold_left (fun acc p -> acc + G.count g p) 0 paths in
      (* Every element has exactly one label path, and each path's count is
         the size of the set XPath selects for it. *)
      List.for_all (fun p -> G.count g p = naive_count eng p) paths
      && total = G.document_nodes g
      && G.document_nodes g = Dom.size root)

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "target sets" `Quick test_targets;
    Alcotest.test_case "child label completion" `Quick test_child_labels;
    Alcotest.test_case "guide answers match XPath" `Quick test_matches_xpath;
    prop_guide_invariants;
  ]
