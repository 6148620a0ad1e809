module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module Planner = Rxpath.Planner
module SMap = Map.Make (String)

type doc = {
  name : string;
  root : Dom.t;
  r2 : R2.t;
  index : Rxpath.Doc_index.t;
  engine : Rxpath.Eval.engine;
  planner : Planner.t option;
  doc_version : int;
  live : bool;
}

type t = {
  version : int;
  published_at : float;
  docs : doc array;
  index : int SMap.t;
}

(* A snapshot document over [r2] as given: the planner (or the engine) is
   built over it in place.  With [?planner] shared state the document gets
   a query planner whose engine doubles as its evaluator (one Doc_index
   serves both). *)
let doc_over ?planner ~doc_version name r2 =
  match planner with
  | None ->
    let index = Rxpath.Doc_index.build r2 in
    { name; root = R2.root r2; r2; index;
      engine = Rxpath.Engine_ruid.create ~index r2; planner = None;
      doc_version; live = true }
  | Some shared ->
    let p = Planner.create ~shared r2 in
    { name; root = R2.root r2; r2; index = Planner.index p;
      engine = Planner.engine p; planner = Some p; doc_version; live = true }

(* An isolated copy of a master document: clone the DOM, then re-impose the
   exact identifiers through the persistence sidecar (Ruid2 state references
   its own tree's nodes, so sharing the numbering would share the tree). *)
let capture_doc ?planner ~doc_version name (master : R2.t) =
  let bytes = Ruid.Persist.sidecar_to_bytes master in
  let root = Dom.clone (R2.root master) in
  doc_over ?planner ~doc_version name (Ruid.Persist.sidecar_of_bytes root bytes)

let empty =
  { version = 0; published_at = 0.; docs = [||]; index = SMap.empty }

(* Slot assignment for arriving documents (startup, ADDDOC / a committed
   ADOPT).  The name map is persistent and shared structurally across
   snapshots, so registering the nth document costs O(log n) map work plus
   the O(n) pointer copy of the docs array — cataloguing a large corpus
   stays far from quadratic encode/decode work.  A name that maps to a
   retired slot revives that slot (the rebalance A->B->A round trip);
   indices of other documents never move, which the commit queue's
   [doc_index] references rely on. *)
let place t ~version make named =
  let old = Array.length t.docs in
  let docs = Array.copy t.docs in
  let fresh = ref [] and n = ref old and index = ref t.index in
  let slots =
    List.map
      (fun (name, x) ->
        match SMap.find_opt name !index with
        | Some i when i >= old || docs.(i).live ->
          invalid_arg ("Snapshot: duplicate document " ^ name)
        | Some i ->
          docs.(i) <- make name x;
          i
        | None ->
          let i = !n in
          incr n;
          fresh := make name x :: !fresh;
          index := SMap.add name i !index;
          i)
      named
  in
  ( { version; published_at = Unix.gettimeofday ();
      docs = Array.append docs (Array.of_list (List.rev !fresh));
      index = !index },
    slots )

let capture ?planner ~version masters =
  fst
    (place empty ~version (capture_doc ?planner ~doc_version:version) masters)

(* Slot [doc_index] handed [owned], keeping its name and its planner
   sharing (cache and counters). *)
let rehost t ~version ~doc_version ~doc_index owned =
  let docs = Array.copy t.docs in
  let prev = docs.(doc_index) in
  let planner = Option.map Planner.shared_of prev.planner in
  docs.(doc_index) <- doc_over ?planner ~doc_version prev.name owned;
  { version; published_at = Unix.gettimeofday (); docs; index = t.index }

let add_doc t ?planner ~version ~name master =
  match
    place t ~version (capture_doc ?planner ~doc_version:version)
      [ (name, master) ]
  with
  | next, [ i ] -> (next, i)
  | _ -> assert false

let host t ?planner ~version owned =
  place t ~version (doc_over ?planner ~doc_version:version) owned

(* Retire in place: the slot (and every other document's index) survives so
   in-flight readers and the write path's index-addressed bookkeeping stay
   valid; the document merely stops being listed, queried or checked.  The
   slot's memory is retained until a revival — the cost of never shifting
   an index. *)
let retire_doc t ~version ~doc_index =
  let docs = Array.copy t.docs in
  docs.(doc_index) <- { (docs.(doc_index)) with live = false };
  { version; published_at = Unix.gettimeofday (); docs; index = t.index }

(* Root label path of an element (root label first, elements only — the
   document node contributes nothing).  Parent pointers are read for their
   payload only: a shared node's may name an older version of its parent,
   with the same tag. *)
let label_path n =
  List.rev_map Dom.tag
    (List.filter Dom.is_element (n :: Dom.ancestors n))

(* The guide delta of one logical operation, computed against the version
   the operation is ABOUT to apply to (ranks are pre-apply preorder ranks,
   resolved through the numbering's order index). *)
let delta_of_op r2 op =
  match op with
  | Rstorage.Wal.Insert { parent_rank; tag; _ } -> (
    match R2.node_at_rank r2 parent_rank with
    | None -> None  (* replay will fail; let Wal.apply report it *)
    | Some parent ->
      let base = if Dom.is_element parent then label_path parent else [] in
      Some [ Planner.Add (base @ [ tag ]) ])
  | Rstorage.Wal.Delete { rank } -> (
    match R2.node_at_rank r2 rank with
    | None -> None
    | Some n ->
      Some (List.map (fun e -> Planner.Remove (label_path e)) (Dom.elements n)))

(* Incremental publication: an O(1) clone of the PREVIOUS snapshot's
   numbering, then a replay of the batch's logical operations on it.  The
   clone shares every table and the tree; the replay path-copies the
   nodes it changes and the path to the root, so the new version shares
   the rest with the old one, which readers may still hold.  [Wal.apply]
   is deterministic, so the result carries identifiers bit-identical to
   the master that already applied the same ops — the equivalence the
   server property test pins across random update sequences.  The index
   and the planner advance by sharing too: postings of the touched tags
   only, and each op's DataGuide delta (computed against the pre-apply
   version) folded into a clone of the previous guide.  Returns the new
   doc plus how many area-renumberings the replay performed (the
   [areas_rebuilt] metric: everything else was shared, not rebuilt). *)
let advance_doc prev ~doc_version ops =
  let r2 = R2.clone prev.r2 in
  let areas = Hashtbl.create 8 in
  let deltas = ref (Some []) in
  let track = prev.planner <> None in
  List.iter
    (fun op ->
      if track then
        (match (!deltas, delta_of_op r2 op) with
        | Some acc, Some ds -> deltas := Some (acc @ ds)
        | _, None -> deltas := None  (* unresolvable rank: give up tracking *)
        | None, _ -> ());
      let area, _changed = Rstorage.Wal.apply r2 op in
      Hashtbl.replace areas area ())
    ops;
  let planner =
    Option.map
      (fun p ->
        Planner.advance p r2
          ~deltas:
            (match !deltas with
            | Some ds -> ds
            | None -> [ Planner.Remove [] ]  (* inconsistent: force rebuild *)))
      prev.planner
  in
  let index, engine =
    match planner with
    | Some p -> (Planner.index p, Planner.engine p)
    | None ->
      let index = Rxpath.Doc_index.advance prev.index r2 in
      (index, Rxpath.Engine_ruid.create ~index r2)
  in
  ( { name = prev.name; root = R2.root r2; r2; index; engine; planner;
      doc_version; live = prev.live },
    Hashtbl.length areas )

(* The stamp a successor of [t] must be published under: strictly above
   [t.version] (cache keys embed the stamp, so it must move on every
   publication) and at least [floor] — the highest update version the
   successor folds in.  With several commit groups publishing concurrently
   through a CAS loop, each contender recomputes its stamp against the
   freshly re-read predecessor, so stamps stay strictly increasing across
   whichever publication wins the race. *)
let next_stamp t ~floor = max floor (t.version + 1)

let advance t ~version updates =
  let docs = Array.copy t.docs in
  let rebuilt = ref 0 in
  List.iter
    (fun (doc_index, ops, doc_version) ->
      let doc, areas = advance_doc docs.(doc_index) ~doc_version ops in
      docs.(doc_index) <- doc;
      rebuilt := !rebuilt + areas)
    updates;
  ( { version; published_at = Unix.gettimeofday (); docs; index = t.index },
    !rebuilt )

let find t name =
  match SMap.find_opt name t.index with
  | Some i when t.docs.(i).live -> Some (i, t.docs.(i))
  | _ -> None

let live_docs t = Array.to_list t.docs |> List.filter (fun d -> d.live)
let doc_names t = List.map (fun d -> d.name) (live_docs t)

let parse src =
  try Rxpath.Xparser.parse_union src
  with e -> failwith (Printf.sprintf "bad XPath %S: %s" src (Printexc.to_string e))

let query_doc d u =
  match d.planner with
  | Some p -> Planner.select_union p u
  | None -> Rxpath.Eval.select_union d.engine u

let count_doc ?key d u =
  match d.planner with
  | Some p -> Planner.count_union p ?key u
  | None -> List.length (Rxpath.Eval.select_union d.engine u)

let query_doc_first ?key d ~k u =
  match d.planner with
  | Some p -> Planner.select_first p ?key ~k u
  | None ->
    let nodes = Rxpath.Eval.select_union d.engine u in
    (List.length nodes, List.filteri (fun i _ -> i < k) nodes)

let explain_doc d src =
  match d.planner with
  | Some p -> Ok (Planner.explain p src)
  | None -> Error "planner disabled"

let count t src =
  let u = parse src in
  List.map (fun d -> (d.name, count_doc d u)) (live_docs t)

let query t src =
  let u = parse src in
  live_docs t
  |> List.map (fun d -> (d.name, query_doc d u))
  |> List.filter (fun (_, nodes) -> nodes <> [])

let check t name =
  match find t name with
  | None -> raise Not_found
  | Some (_, d) -> R2.check d.r2
