(* Seeded inputs: documents, corpus, request streams, and the expected
   answer of every distinct request.

   Everything here is a function of the workload seed and is computed
   before any deployment starts; the programs under test only ever see
   the generated files and requests.  Expected totals come from the
   repository's reference evaluator ({!Rxpath.Engine_naive}) over the same
   files the servers parse, never from the code path being measured. *)

module Dom = Rxml.Dom
module Rng = Rworkload.Rng
module P = Rserver.Protocol

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Serialize [root] to [path] and return the bytes written. *)
let write_doc path root =
  let s = Rxml.Serializer.to_string root in
  write_file path s;
  String.length s

let parse path = Rxml.Parser.parse_file path

(* ------------------------------------------------------------------ *)
(* Expected answers                                                    *)
(* ------------------------------------------------------------------ *)

type evaluator = { doc : Dom.t; engine : Rxpath.Eval.engine }

let evaluator_of_file path =
  let doc = parse path in
  { doc; engine = Rxpath.Engine_naive.create doc }

(* Total the server reports for [xpath] over one document: the size of the
   node set, evaluated from the document node. *)
let count ev xpath =
  List.length
    (Rxpath.Eval.select_union ev.engine (Rxpath.Xparser.parse_union xpath))

(* Counts of every distinct [(document index, xpath)] pair, evaluated on
   two domains (each pair only reads its own document and evaluator), with
   the work split by document size. *)
let count_all (evs : evaluator array) pairs =
  let pairs = List.sort_uniq compare pairs in
  let sizes = Array.map (fun ev -> Dom.size ev.doc) evs in
  let weight (i, _) = sizes.(i) in
  let sorted = List.sort (fun a b -> compare (weight b) (weight a)) pairs in
  let a, b, _, _ =
    List.fold_left
      (fun (a, b, wa, wb) p ->
        if wa <= wb then (p :: a, b, wa + weight p, wb)
        else (a, p :: b, wa, wb + weight p))
      ([], [], 0, 0) sorted
  in
  let eval l = List.map (fun (i, x) -> ((i, x), count evs.(i) x)) l in
  let other = Domain.spawn (fun () -> eval b) in
  let mine = eval a in
  let tbl = Hashtbl.create (List.length pairs) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (mine @ Domain.join other);
  tbl

(* ------------------------------------------------------------------ *)
(* Read requests                                                        *)
(* ------------------------------------------------------------------ *)

type read = {
  request : P.request;
  kind : string;  (** protocol verb *)
  expect : int;  (** expected [total=] *)
}

let read_request ~doc ~query_verb xpath =
  match doc, query_verb with
  | Some doc, `Count -> (P.Count_doc { doc; xpath }, "COUNTD")
  | Some doc, `Query -> (P.Query_doc { doc; xpath }, "QUERYD")
  | None, `Count -> (P.Count xpath, "COUNT")
  | None, `Query -> (P.Query xpath, "QUERY")

(* Head of structural XMark queries in Zipf rank order, one of each plan
   shape the planner picks — chain joins, twig joins, DataGuide-refuted
   paths, and reverse-axis queries that fall back to the engine — mixed
   so that every shape has a hot and a cool member.  The order is fixed:
   the seed varies the draws, not which query is hot. *)
let xmark_head =
  [|
    "//item/name";
    "//person[profile/interest]/name";
    "//open_auction/bidder/increase";
    "//warehouse/item";
    "//item[payment]/location";
    "//increase/parent::bidder";
    "/site/regions/africa/item";
    "//open_auction[bidder]/seller";
    "//closed_auction//listitem";
    "//person/bidder";
    "//person[creditcard]/name";
    "//parlist//text";
    "//seller/ancestor::open_auction";
    "//closed_auction[annotation]/price";
    "/site/people/person/emailaddress";
  |]

(* Value-predicate templates; each draw gets a fresh constant, so its text
   is new to the result cache and to the plan cache.  Rooted child paths
   keep their reference evaluation cheap: the closed-loop phase needs
   thousands of them answered before the run starts. *)
let xmark_tail =
  [|
    ("/site/open_auctions/open_auction[current>", "]/initial", 500);
    ("/site/closed_auctions/closed_auction[price<", "]/seller", 500);
    ("/site/open_auctions/open_auction/bidder[increase>", "]/date", 50);
    ("/site/open_auctions/open_auction[initial<", "]/current", 200);
    ("/site/closed_auctions/closed_auction[price>", "]/buyer", 500);
  |]

(* A constant with three decimals in [0, hi), unique within one stream. *)
let fresh_constant rng seen hi =
  let rec go () =
    let c =
      Printf.sprintf "%d.%03d" (Rng.int rng hi) (Rng.int rng 1000)
    in
    if Hashtbl.mem seen c then go ()
    else begin
      Hashtbl.add seen c ();
      c
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Corpus                                                               *)
(* ------------------------------------------------------------------ *)

type doc_file = { name : string; path : string; bytes : int; nodes : int }

let xmark ~seed ~size = Rworkload.Xmark.generate ~seed ~scale:(float_of_int size /. 2000.)

let dblp ~seed ~size = Rworkload.Dblp.generate ~seed ~publications:(max 1 (size / 12))

let shape ~seed ~size profile =
  let profile =
    match profile with
    | `Uniform -> Rworkload.Shape.Uniform { fanout_lo = 0; fanout_hi = 5 }
    | `Skewed -> Rworkload.Shape.Skewed { max_fanout = 200; s = 1.2 }
    | `Deep -> Rworkload.Shape.Deep { fanout = 4; bias = 0.6 }
  in
  Rworkload.Shape.generate ~seed ~target:size profile

(* Write one generated document and describe it; [nodes] counts the parsed
   document's nodes, document node included, which is what ADDDOC
   acknowledges. *)
let materialize ~dir ~name root =
  let path = Filename.concat dir (name ^ ".xml") in
  let bytes = write_doc path root in
  { name; path; bytes; nodes = Dom.size (parse path) }
