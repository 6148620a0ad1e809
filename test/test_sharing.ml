(* Versions that share structure: a published snapshot never changes once
   later versions derive from it, the index a version derives equals one
   built over it, node handles from earlier versions still address the
   updates, and a publication costs a bounded number of words. *)

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module DI = Rxpath.Doc_index
module Snapshot = Rserver.Snapshot
module Wal = Rstorage.Wal
module Rng = Rworkload.Rng

let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let doc0 snap = snap.Snapshot.docs.(0)

(* ------------------------------------------------------------------ *)
(* Held versions never change                                          *)
(* ------------------------------------------------------------------ *)

let queries =
  List.map Snapshot.parse
    [ "//*"; "//bid"; "//item"; "//item/name"; "//person//name";
      "//open_auction/bidder"; "//item[name]"; "//*[bid]/bid";
      "//bid/parent::*"; "//name/following-sibling::*";
      "//bidder/preceding::item" ]

type record = {
  snap : Snapshot.t;
  answers : (int * string list) list;
  xml : bytes;
  sidecar : bytes;
}

let observe snap =
  let d = doc0 snap in
  let ids nodes =
    List.map (fun n -> R2.id_to_string (R2.id_of_node d.Snapshot.r2 n)) nodes
  in
  R2.check d.Snapshot.r2;
  {
    snap;
    answers =
      List.map
        (fun u -> (Snapshot.count_doc d u, ids (Snapshot.query_doc d u)))
        queries;
    xml = Ruid.Persist.xml_to_bytes d.Snapshot.r2;
    sidecar = Ruid.Persist.sidecar_to_bytes d.Snapshot.r2;
  }

(* One random operation against the current version: inserts of several
   tags (fan-out growth at area size 4), deletes of leaves, of inner nodes
   and of area roots. *)
let random_op rng r2 =
  let size = Ruid.Order_index.size (R2.order r2) in
  let node r = Option.get (R2.node_at_rank r2 r) in
  let area_roots () =
    List.filter_map
      (fun r ->
        let n = node r in
        if Ruid.Frame.is_area_root (R2.frame r2) n then Some r else None)
      (List.init (size - 1) (fun i -> i + 1))
  in
  match Rng.int rng 10 with
  | 0 | 1 when size > 20 -> (
    match area_roots () with
    | [] -> Wal.Delete { rank = 1 + Rng.int rng (size - 1) }
    | l -> Wal.Delete { rank = List.nth l (Rng.int rng (List.length l)) })
  | 2 | 3 when size > 20 -> Wal.Delete { rank = 1 + Rng.int rng (size - 1) }
  | _ ->
    let parent_rank = Rng.int rng size in
    let pos = Rng.int rng (Dom.degree (node parent_rank) + 1) in
    let tag = [| "bid"; "item"; "name"; "bid" |].(Rng.int rng 4) in
    Wal.Insert { parent_rank; pos; tag }

let test_held_versions_never_change () =
  let root = Rworkload.Xmark.generate ~seed:3 ~scale:0.1 in
  let r2 = R2.number ~max_area_size:4 root in
  let snap0, _ =
    Snapshot.host (Snapshot.capture ~version:1 [])
      ~planner:(Rxpath.Planner.make_shared ()) ~version:1 [ ("d", r2) ]
  in
  let rng = Rng.create 11 in
  let held = ref [ observe snap0 ] and snap = ref snap0 and v = ref 1 in
  let ops = ref 0 in
  while !ops < 240 do
    (* batches of one to four operations per publication *)
    let d = doc0 !snap in
    let scratch = R2.clone d.Snapshot.r2 in
    let batch =
      List.init (1 + Rng.int rng 4) (fun _ ->
          let op = random_op rng scratch in
          match Wal.apply scratch op with
          | _ -> Some op
          | exception Wal.Replay_error _ -> None)
      |> List.filter_map Fun.id
    in
    if batch <> [] then begin
      incr v;
      ops := !ops + List.length batch;
      snap := fst (Snapshot.advance !snap ~version:!v [ (0, batch, !v) ]);
      held := observe !snap :: !held
    end
  done;
  Alcotest.(check bool) "the script compacted the order index" false
    (Ruid.Order_index.same_build (R2.order r2)
       (R2.order (doc0 !snap).Snapshot.r2));
  List.iteri
    (fun i r ->
      let now = observe r.snap in
      if now.answers <> r.answers then
        Alcotest.failf "held version %d: query answers changed" i;
      if not (Bytes.equal now.xml r.xml) then
        Alcotest.failf "held version %d: serialized XML changed" i;
      if not (Bytes.equal now.sidecar r.sidecar) then
        Alcotest.failf "held version %d: sidecar bytes changed" i)
    !held

(* ------------------------------------------------------------------ *)
(* The index successor equals a rebuild                                *)
(* ------------------------------------------------------------------ *)

(* An index in document-order terms only — node kinds and tags, extents,
   parents and postings as preorder ranks — so indexes over different
   numberings of the same tree compare equal. *)
let dense idx =
  let n = DI.size idx in
  let o = DI.order idx in
  let rank_of_key k = DI.rank idx (Ruid.Order_index.node o k) in
  let nodes =
    List.init n (fun r ->
        let x = DI.node_at idx r in
        let k = DI.key idx x in
        let p = Ruid.Order_index.parent o k in
        ( Format.asprintf "%a" Dom.pp_kind x,
          DI.extent idx x,
          (if p < 0 then -1 else rank_of_key p) ))
  in
  let posts =
    List.sort compare (DI.tags idx)
    |> List.map (fun tag ->
           (tag, Array.map rank_of_key (DI.postings idx tag)))
  in
  (nodes, posts)

let test_index_successor_equals_rebuild () =
  for seed = 1 to 100 do
    let root =
      Rworkload.Shape.generate ~seed ~target:60
        (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 3 })
    in
    let ops =
      Rworkload.Updates.script ~seed:(seed + 1000) ~ops:12 root
      |> List.map Rstorage.Crashsim.wal_op_of_update
    in
    let r2 = R2.number ~max_area_size:4 root in
    let p = ref (Rxpath.Planner.create r2) and cur = ref r2 in
    List.iteri
      (fun i op ->
        let next = R2.clone !cur in
        ignore (Wal.apply next op);
        p := Rxpath.Planner.advance !p next ~deltas:[];
        cur := next;
        let succ = Rxpath.Planner.index !p in
        (* the same version, built: identical key arrays *)
        let built = DI.build next in
        List.iter
          (fun tag ->
            if DI.postings succ tag <> DI.postings built tag then
              Alcotest.failf "seed %d op %d: postings of %s differ" seed i tag)
          (List.sort_uniq compare (DI.tags succ @ DI.tags built));
        R2.check next;
        (* an independent numbering of the same tree: same document order *)
        let fresh = DI.build (R2.number ~max_area_size:4 (Dom.clone (R2.root next))) in
        if dense succ <> dense fresh then
          Alcotest.failf "seed %d op %d: successor differs from a rebuild" seed i)
      ops
  done

(* ------------------------------------------------------------------ *)
(* Node handles across versions                                        *)
(* ------------------------------------------------------------------ *)

let test_handles_from_earlier_versions () =
  let root = Rworkload.Xmark.generate ~seed:5 ~scale:0.05 in
  let r2 = R2.number ~max_area_size:4 root in
  let v0 = R2.clone r2 in
  let elements = Array.of_list (Dom.elements root) in
  let rng = Rng.create 3 in
  (* path copies make every ancestor of a change a new version *)
  for _ = 1 to 20 do
    let parent = elements.(Rng.int rng (Array.length elements)) in
    ignore (R2.insert_node v0 ~parent ~pos:0 (Dom.element "x"))
  done;
  R2.check v0;
  Alcotest.(check bool) "the root was path-copied" true (R2.root v0 != root);
  (* insert under, and delete, nodes taken from the first version *)
  let parent = elements.(Array.length elements / 2) in
  let leaf = Dom.element "held" in
  ignore (R2.insert_node v0 ~parent ~pos:0 leaf);
  (match R2.current v0 leaf with
  | Some l -> (
    match l.Dom.parent with
    | Some p ->
      Alcotest.(check int) "inserted under the held node's version"
        parent.Dom.serial p.Dom.serial
    | None -> Alcotest.fail "inserted leaf has no parent")
  | None -> Alcotest.fail "inserted leaf is not in the tree");
  let victim = elements.(Array.length elements - 1) in
  ignore (R2.delete_subtree v0 victim);
  Alcotest.(check bool) "deleted by an old handle" true
    (R2.current v0 victim = None);
  R2.check v0;
  (* the first version and its tree are untouched *)
  R2.check r2;
  Alcotest.(check bool) "original still holds the victim" true
    (R2.current r2 victim <> None)

(* ------------------------------------------------------------------ *)
(* Publication allocates a bounded number of words                     *)
(* ------------------------------------------------------------------ *)

let test_publication_allocation_bound () =
  let root = Rworkload.Xmark.generate ~seed:21 ~scale:10.0 in
  let r2 = R2.number ~max_area_size:64 root in
  Alcotest.(check bool) "a ~40k-node document" true (Dom.size root > 38_000);
  let snap, _ =
    Snapshot.host (Snapshot.capture ~version:1 [])
      ~planner:(Rxpath.Planner.make_shared ()) ~version:1 [ ("d", r2) ]
  in
  let rng = Rng.create 9 in
  let n = Dom.size root in
  let publish () =
    let op = Wal.Insert { parent_rank = Rng.int rng n; pos = 0; tag = "bid" } in
    let w0 = words () in
    let next = Snapshot.advance snap ~version:2 [ (0, [ op ], 2) ] in
    let w = words () -. w0 in
    ignore (Sys.opaque_identity next);
    w
  in
  ignore (publish ());
  for _ = 1 to 8 do
    let w = publish () in
    if w >= 50_000. then
      Alcotest.failf "one-insert publication allocated %.0f words" w
  done

(* ------------------------------------------------------------------ *)
(* The order index stays O(nodes) as serials spread                    *)
(* ------------------------------------------------------------------ *)

(* Serials are process-global, so the leaves inserted into a long-lived
   numbering take serials far past its own.  A rebuild of its order index
   must size nothing by the serial span. *)
let test_index_size_after_serials_spread () =
  let root = Rworkload.Xmark.generate ~seed:4 ~scale:0.02 in
  let r2 = R2.clone (R2.number ~max_area_size:8 root) in
  let order0 = R2.order r2 in
  for _ = 1 to 1_000_000 do
    ignore (Sys.opaque_identity (Dom.element "x"))
  done;
  let rng = Rng.create 5 and inserts = ref 0 in
  while Ruid.Order_index.same_build order0 (R2.order r2) && !inserts < 500 do
    let size = Ruid.Order_index.size (R2.order r2) in
    let parent = Option.get (R2.node_at_rank r2 (Rng.int rng size)) in
    ignore (R2.insert_node r2 ~parent ~pos:0 (Dom.element "bid"));
    incr inserts
  done;
  Alcotest.(check bool) "the inserts compacted the order index" false
    (Ruid.Order_index.same_build order0 (R2.order r2));
  R2.check r2;
  let nodes = Ruid.Order_index.size (R2.order r2) in
  let words = Obj.reachable_words (Obj.repr (R2.order r2)) in
  if words > 200 * nodes then
    Alcotest.failf "order index of %d nodes holds %d words" nodes words

let suite =
  [
    Alcotest.test_case "held versions never change (240 ops, area 4)" `Quick
      test_held_versions_never_change;
    Alcotest.test_case "index successor = rebuild (100 seeds)" `Quick
      test_index_successor_equals_rebuild;
    Alcotest.test_case "updates take node handles from earlier versions"
      `Quick test_handles_from_earlier_versions;
    Alcotest.test_case "one-insert publication under 50k words at 40k nodes"
      `Quick test_publication_allocation_bound;
    Alcotest.test_case "order index stays O(nodes) as serials spread" `Quick
      test_index_size_after_serials_spread;
  ]
