module Dom = Rxml.Dom
module P = Rxpath.Planner
open Util

let setup () =
  let site = Rworkload.Xmark.generate ~seed:31 ~scale:0.8 in
  let doc = Dom.document () in
  Dom.append_child doc site;
  let r2 = Ruid.Ruid2.number ~max_area_size:16 doc in
  (P.create r2, Rxpath.Engine_naive.create doc)

let kind =
  Alcotest.testable
    (fun ppf k -> Format.pp_print_string ppf (P.kind_name k))
    ( = )

(* Each query with the plan kind the planner must pick for it on the
   setup document, and must answer exactly as the naive evaluator does. *)
let planned_queries =
  [
    (* pure child/descendant name-test paths: chain joins *)
    ("//item/name", `Chain);
    ("/site/regions/africa/item", `Chain);
    ("//closed_auction//listitem", `Chain);
    ("/site//bidder/increase", `Chain);
    ("//parlist//text", `Chain);
    ("//open_auction/bidder", `Chain);
    ("/site/people/person/profile/interest", `Chain);
    (* structural predicates: twig joins *)
    ("//person[creditcard]/name", `Twig);
    ("//item[description//listitem]", `Twig);
    ("//item[description//listitem]/quantity", `Twig);
    ("//item[location]/name", `Twig);
    ("//open_auction[bidder]/seller", `Twig);
    ("//closed_auction[annotation//text]/price", `Twig);
    ("//item[description//listitem][quantity]/name", `Twig);
    ("//person[profile/interest]/emailaddress", `Twig);
    ("//open_auction[bidder/increase]", `Twig);
    (* a twig whose rooted child path the engine walks more cheaply *)
    ("/site/regions/africa/item[name]", `Engine);
    (* everything else runs on the engine *)
    ("//item[@id='x']", `Engine);
    ("//item[@id='x']/name", `Engine);
    ("//item[@id='itemafrica1']", `Engine);
    ("//item[2]", `Engine);
    ("//item[1]/name", `Engine);
    ("//item[position()=1]", `Engine);
    ("//bidder[1]/increase", `Engine);
    ("//item[name or location]", `Engine);
    ("//item[not(name)]", `Engine);
    ("//item/*", `Engine);
    ("//name | //payment", `Engine);
    ("//listitem/ancestor::item", `Engine);
    ("//item/ancestor::regions", `Engine);
    ("//annotation/preceding::bidder", `Engine);
    ("//person[@id='person1']", `Engine);
    ("..", `Engine);
    (* structurally impossible label paths: refuted by the DataGuide *)
    ("//warehouse/item", `Pruned);
    ("//person/bidder/name", `Pruned);
    ("//person[creditcard]/nonexistent", `Pruned);
    ("//title/text()", `Pruned);
  ]

(* A chain plan renders its steps in query order, the pivot starred:
   stars dropped, the rendering spells the query back. *)
let chain_steps plan =
  match String.split_on_char ' ' (P.describe plan) with
  | "chain-join" :: _pivot :: steps ->
    String.concat "" (String.split_on_char '*' (String.concat "" steps))
  | _ -> P.describe plan

let test_strategy_selection () =
  let planner, _ = setup () in
  List.iter
    (fun (q, expected) ->
      let plan = P.plan planner q in
      Alcotest.check kind q expected (P.kind plan);
      if expected = `Chain then
        Alcotest.(check string) (q ^ " rendering") q (chain_steps plan))
    planned_queries

let test_results_match_naive () =
  let planner, naive = setup () in
  List.iter
    (fun (q, _) ->
      check_node_list q (Rxpath.Eval.query naive q) (P.query planner q))
    planned_queries

(* Small random trees, few tags: chains over nested matches of every
   label, against the naive evaluator (twigs: the [twig] suite). *)
let prop_matches_naive_random =
  Util.qtest ~count:25 "chains agree with the evaluator on random documents"
    QCheck.(int_range 20 200)
    (fun n ->
      let root =
        Rworkload.Shape.generate ~seed:(n * 7) ~tags:[| "a"; "b"; "c" |]
          ~target:n
          (Rworkload.Shape.Uniform { fanout_lo = 0; fanout_hi = 4 })
      in
      let planner = P.create (Ruid.Ruid2.number ~max_area_size:8 root) in
      let naive = Rxpath.Engine_naive.create root in
      List.for_all
        (fun q ->
          serials (P.query planner q) = serials (Rxpath.Eval.query naive q))
        [ "//a/b"; "//b//c"; "//a//b/c"; "//c" ])

(* Property: for seeded random twig-fragment queries — including ones the
   DataGuide prunes to empty — the planner answers exactly what the RUID
   engine answers, through every entry point: the node list, the count
   and the first [id_cap] nodes.  Tags mix labels the document's generator
   emits with ones it never does, so refutations are exercised alongside
   every join kind. *)
let gen_query tags st =
  let tag () = tags.(Random.State.int st (Array.length tags)) in
  let edge () = if Random.State.bool st then "/" else "//" in
  let b = Buffer.create 32 in
  let steps = 1 + Random.State.int st 3 in
  for _ = 1 to steps do
    Buffer.add_string b (edge ());
    Buffer.add_string b (tag ());
    if Random.State.int st 4 = 0 then
      Buffer.add_string b
        (match Random.State.int st 3 with
        | 0 -> Printf.sprintf "[%s]" (tag ())
        | 1 -> Printf.sprintf "[%s/%s]" (tag ()) (tag ())
        | _ -> Printf.sprintf "[%s//%s]" (tag ()) (tag ()))
  done;
  Buffer.contents b

let xmark_tags =
  [|
    "site"; "regions"; "item"; "name"; "description"; "payment";
    "quantity"; "people"; "person"; "profile"; "interest"; "creditcard";
    "open_auction"; "bidder"; "increase"; "current"; "closed_auction";
    "annotation"; "price"; "category"; "listitem"; "parlist"; "text";
    "warehouse"; "zzz";
  |]

(* The documents the property runs on besides XMark, each with the tag
   pool its generator draws from (read off the document) plus one tag it
   never emits.  Deep recursion is where the ancestor probe and the
   stack-based child sweep do the most work; the deep document stays
   element-rooted so anchoring below an element root runs too. *)
let documents =
  lazy
    (let in_doc root =
       let doc = Dom.document () in
       Dom.append_child doc root;
       doc
     in
     let module S = Rworkload.Shape in
     [
       ("dblp", in_doc (Rworkload.Dblp.generate ~seed:17 ~publications:250));
       ( "shape uniform",
         in_doc
           (S.generate ~seed:23 ~target:3000
              (S.Uniform { fanout_lo = 0; fanout_hi = 5 })) );
       ( "shape skewed",
         in_doc
           (S.generate ~seed:29 ~target:3000
              (S.Skewed { max_fanout = 200; s = 1.2 })) );
       ( "shape deep",
         S.generate ~seed:37 ~target:3000 (S.Deep { fanout = 4; bias = 0.6 })
       );
     ]
     |> List.map (fun (name, root) ->
            let tags =
              List.sort_uniq compare
                (List.filter_map
                   (fun n -> if Dom.is_element n then Some (Dom.tag n) else None)
                   (Dom.preorder root))
            in
            let r2 = Ruid.Ruid2.number ~max_area_size:16 root in
            (name, P.create r2, Array.of_list (tags @ [ "zzz" ]))))

let id_cap = 32

let check_entry_points planner ?context ~seed q =
  let msg = Printf.sprintf "seed %d: %s" seed q in
  let u = Rxpath.Xparser.parse_union q in
  let expected = Rxpath.Eval.select_union (P.engine planner) ?context u in
  check_node_list msg expected (P.select_union planner ?context u);
  let total = List.length expected in
  Alcotest.(check int) (msg ^ " count") total
    (P.count_union planner ?context u);
  let n, first = P.select_first planner ?context ~k:id_cap u in
  Alcotest.(check int) (msg ^ " first-k total") total n;
  check_node_list (msg ^ " first-k nodes")
    (List.filteri (fun i _ -> i < id_cap) expected)
    first

(* The same query relative to a context node.  Planned from a context
   other than the root, a chain goes without the DataGuide, on posting
   cardinalities alone — the plans whose pivots sit past the first step
   and run the up-phase joins. *)
let relative q =
  if String.starts_with ~prefix:"//" q then
    "descendant::" ^ String.sub q 2 (String.length q - 2)
  else String.sub q 1 (String.length q - 1)

(* A context below the numbering root: the root element, or its first
   element child when the numbering is rooted at the element itself. *)
let context_of planner =
  let root = Rxpath.Eval.((P.engine planner).root) in
  let first_element n = List.find Dom.is_element n.Dom.children in
  let top = if Dom.is_element root then root else first_element root in
  if top == root then first_element root else top

let queries tags =
  List.init 50 (fun i ->
      let seed = i + 1 in
      (seed, gen_query tags (Random.State.make [| seed |])))

let property planner tags =
  let context = context_of planner in
  List.iter
    (fun (seed, q) ->
      check_entry_points planner ~seed q;
      check_entry_points planner ~context ~seed (relative q))
    (queries tags)

let test_property_matches_ruid () =
  let planner, _ = setup () in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (_, q) -> Hashtbl.replace seen (P.kind (P.plan planner q)) ())
    (queries xmark_tags);
  property planner xmark_tags;
  Alcotest.(check bool)
    "pruned-to-empty queries were generated" true
    (Hashtbl.mem seen `Pruned);
  Alcotest.(check bool)
    "plannable queries were generated" true
    (Hashtbl.mem seen `Chain)

let test_property_on name () =
  let _, planner, tags =
    List.find (fun (n, _, _) -> n = name) (Lazy.force documents)
  in
  property planner tags

(* The chain plans the properties above ran, taken together, use every
   join method — and every kernel behind one: each (phase, edge, method)
   a chain can execute. *)
let test_every_join_method () =
  let planner, _ = setup () in
  let used = Hashtbl.create 8 in
  let note planner ?context q =
    match P.plan planner ?context q with
    | P.Chain c ->
      for i = 0 to c.P.pivot - 1 do
        let edge = c.P.csteps.(i + 1).P.cedge in
        let m = if edge = P.Child then P.Probe else c.P.up_meth.(i) in
        Hashtbl.replace used ("up", edge, m) ()
      done;
      for i = 1 to Array.length c.P.csteps - 1 do
        Hashtbl.replace used
          ("down", c.P.csteps.(i).P.cedge, c.P.down_meth.(i))
          ()
      done
    | _ -> ()
  in
  List.iter
    (fun (planner, tags) ->
      let context = context_of planner in
      List.iter
        (fun (_, q) ->
          note planner q;
          note planner ~context (relative q))
        (queries tags))
    ((planner, xmark_tags)
    :: List.map (fun (_, p, tags) -> (p, tags)) (Lazy.force documents));
  List.iter
    (fun ((phase, edge, m) as k) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s %s used" phase (P.edge_name edge)
           (P.jmethod_name m))
        true (Hashtbl.mem used k))
    [
      ("up", P.Child, P.Probe); ("up", P.Descendant, P.Probe);
      ("up", P.Descendant, P.Merge); ("down", P.Child, P.Probe);
      ("down", P.Child, P.Walk); ("down", P.Descendant, P.Merge);
      ("down", P.Descendant, P.Range);
    ]

(* Up-phase joins over nested matches: a rare [x] under [a]s nested in
   [a]s, planned from a context so the pivot sits on [x].  The ancestor
   probe must keep an [a] that is itself the previous [a] it walked from,
   and the child probe must sort in a parent that arrives after its own
   descendants. *)
let test_nested_up_joins () =
  let fill = List.init 60 (fun _ -> t "a" []) in
  let r =
    t "r"
      (t "a" [ t "a" [ t "x" []; t "a" [ t "x" [] ] ]; t "x" [] ] :: fill)
  in
  let doc = Dom.document () in
  Dom.append_child doc r;
  let planner = P.create (Ruid.Ruid2.number ~max_area_size:16 doc) in
  List.iter
    (fun q ->
      (match P.plan planner ~context:r q with
      | P.Chain c ->
        Alcotest.(check bool) (q ^ ": pivot past the first step") true
          (c.P.pivot > 0)
      | p -> Alcotest.failf "%s: planned as %s" q (P.describe p));
      check_entry_points planner ~context:r ~seed:0 q)
    [ "descendant::a//a/x"; "descendant::a/a/x"; "a/a//x" ]

let test_context_respected () =
  let planner, naive = setup () in
  let regions = List.hd (Rxpath.Eval.query naive "/site/regions") in
  Alcotest.check kind "relative chain" `Chain
    (P.kind (P.plan planner ~context:regions "africa/item/name"));
  check_node_list "relative plan from context"
    (Rxpath.Eval.query naive ~context:regions "africa/item/name")
    (P.query planner ~context:regions "africa/item/name")

let suite =
  [
    Alcotest.test_case "strategy selection" `Quick test_strategy_selection;
    Alcotest.test_case "results match the naive engine" `Quick test_results_match_naive;
    prop_matches_naive_random;
    Alcotest.test_case "50-seed property: planner = ruid engine" `Quick
      test_property_matches_ruid;
    Alcotest.test_case "50-seed property on dblp" `Quick
      (test_property_on "dblp");
    Alcotest.test_case "50-seed property on shape uniform" `Quick
      (test_property_on "shape uniform");
    Alcotest.test_case "50-seed property on shape skewed" `Quick
      (test_property_on "shape skewed");
    Alcotest.test_case "50-seed property on shape deep" `Quick
      (test_property_on "shape deep");
    Alcotest.test_case "chain plans used every join method" `Quick
      test_every_join_method;
    Alcotest.test_case "nested matches through the up-phase joins" `Quick
      test_nested_up_joins;
    Alcotest.test_case "context respected" `Quick test_context_respected;
  ]
