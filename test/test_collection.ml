module Dom = Rxml.Dom
module C = Rxpath.Collection
module Shape = Rworkload.Shape

let setup () =
  let c = C.create ~max_area_size:8 () in
  let d1 =
    C.add c ~name:"auctions" (Rworkload.Xmark.generate ~seed:1 ~scale:0.5)
  in
  let d2 =
    C.add c ~name:"library" (Rworkload.Dblp.generate ~seed:2 ~publications:50)
  in
  let d3 =
    C.add c ~name:"misc"
      (Shape.generate ~seed:3 ~tags:[| "x"; "y" |] ~target:100
         (Shape.Uniform { fanout_lo = 1; fanout_hi = 3 }))
  in
  (c, d1, d2, d3)

let test_registry () =
  let c, d1, d2, _ = setup () in
  Alcotest.(check int) "three docs" 3 (C.doc_count c);
  Alcotest.(check (list string)) "names" [ "auctions"; "library"; "misc" ] (C.names c);
  Alcotest.(check bool) "find" true (C.find c "library" = Some d2);
  Alcotest.(check string) "name_of" "auctions" (C.name_of c d1);
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument "Collection.add: duplicate name misc") (fun () ->
      ignore (C.add c ~name:"misc" (Dom.element "x")))

let test_gid_round_trip () =
  let c, _, d2, _ = setup () in
  let root = Ruid.Ruid2.root (C.ruid c d2) in
  List.iter
    (fun n ->
      let g = C.gid_of_node c d2 n in
      match C.node_of_gid c g with
      | Some m -> Alcotest.(check int) "round trip" n.Dom.serial m.Dom.serial
      | None -> Alcotest.fail "gid did not resolve")
    (Dom.preorder root)

let test_cross_doc_relationship () =
  let c, d1, d2, _ = setup () in
  let r1 = Ruid.Ruid2.root (C.ruid c d1) in
  let r2 = Ruid.Ruid2.root (C.ruid c d2) in
  let g1 = C.gid_of_node c d1 r1 and g2 = C.gid_of_node c d2 r2 in
  Alcotest.(check bool) "cross-document is None" true
    (C.relationship c g1 g2 = None);
  Alcotest.(check bool) "same-document works" true
    (C.relationship c g1 g1 = Some Ruid.Rel.Self)

let test_query_all () =
  let c, d1, d2, _ = setup () in
  let docs_of hits = List.map fst hits in
  Alcotest.(check bool) "items only in the auction doc" true
    (docs_of (C.query c "//item") = [ d1 ]);
  Alcotest.(check bool) "authors only in the library" true
    (docs_of (C.query c "//author") = [ d2 ]);
  Alcotest.(check int) "no ghosts" 0 (List.length (C.query c "//nothing"))

let test_memory_accounting () =
  let c, _, _, _ = setup () in
  Alcotest.(check bool) "nodes counted" true (C.total_nodes c > 500);
  Alcotest.(check bool) "aux memory is the K tables" true
    (C.aux_memory_words c > 0)

(* The Hashtbl name index and the doubling backing store: registration
   stays correct well past the initial capacity, [names] preserves
   insertion order, and every name remains findable (a linear-scan
   registry would still pass this, but the indexed one must too). *)
let test_amortized_growth () =
  let c = C.create ~max_area_size:8 () in
  let n = 100 in
  let ids =
    List.init n (fun i ->
        let name = Printf.sprintf "doc%03d" i in
        C.add c ~name
          (Shape.generate ~seed:i ~tags:[| "x"; "y" |] ~target:10
             (Shape.Uniform { fanout_lo = 1; fanout_hi = 2 })))
  in
  Alcotest.(check int) "all registered" n (C.doc_count c);
  Alcotest.(check (list string)) "insertion order preserved"
    (List.init n (Printf.sprintf "doc%03d"))
    (C.names c);
  List.iteri
    (fun i id ->
      let name = Printf.sprintf "doc%03d" i in
      (match C.find c name with
      | Some found when found = id -> ()
      | Some _ -> Alcotest.failf "%s resolved to the wrong document" name
      | None -> Alcotest.failf "%s not found after growth" name);
      Alcotest.(check string) "name_of inverts find" name (C.name_of c id))
    ids;
  Alcotest.(check bool) "misses still miss" true (C.find c "doc999" = None)

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "gid round trip" `Quick test_gid_round_trip;
    Alcotest.test_case "cross-document relationship" `Quick test_cross_doc_relationship;
    Alcotest.test_case "query across documents" `Quick test_query_all;
    Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
    Alcotest.test_case "amortized growth and name index" `Quick
      test_amortized_growth;
  ]
