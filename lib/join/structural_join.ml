module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module Rel = Ruid.Rel

type pair = { anc : Dom.t; desc : Dom.t }

(* Canonical result order: descendant document order, then ancestor from
   the nearest upward (so equal multisets compare equal). *)
let normalize r2 pairs =
  let key p =
    let da = R2.id_of_node r2 p.desc and aa = R2.id_of_node r2 p.anc in
    (da, aa)
  in
  List.sort
    (fun p q ->
      let dp, ap = key p and dq, aq = key q in
      let c = R2.doc_order r2 dp dq in
      if c <> 0 then c else R2.doc_order r2 aq ap)
    pairs

let nested_loop r2 ~anc ~desc =
  let out = ref [] in
  List.iter
    (fun a ->
      let aid = R2.id_of_node r2 a in
      List.iter
        (fun d ->
          if R2.relationship r2 aid (R2.id_of_node r2 d) = Rel.Ancestor then
            out := { anc = a; desc = d } :: !out)
        desc)
    anc;
  normalize r2 !out

(* Probe tables keyed by identifier.  Hashing the three-field record
   structurally walks it on every insert and probe; when both indices fit
   31 bits — every practical numbering — the identifier packs losslessly
   into one immediate int (global in bits 31-61, local in bits 1-30, root
   flag in bit 0) and the table becomes int-keyed.  Probes whose id does
   not pack cannot collide with a packed key, so a mixed probe misses
   safely; a build-side overflow falls back to record keys wholesale. *)
let pack_limit = 0x4000_0000

let pack_id (i : R2.id) =
  if i.R2.global < pack_limit && i.R2.local < pack_limit then
    (i.R2.global lsl 31) lor (i.R2.local lsl 1)
    lor (if i.R2.is_root then 1 else 0)
  else -1

(* Build a probe function over [xs] keyed by identifier; [id_of] extracts
   the key, probes return the associated element. *)
let id_table id_of xs =
  let keyed = List.map (fun x -> (id_of x, x)) xs in
  if List.for_all (fun (i, _) -> pack_id i >= 0) keyed then begin
    let table = Hashtbl.create (List.length xs * 2) in
    List.iter (fun (i, x) -> Hashtbl.replace table (pack_id i) x) keyed;
    fun i ->
      let p = pack_id i in
      if p < 0 then None else Hashtbl.find_opt table p
  end
  else begin
    let table = Hashtbl.create (List.length xs * 2) in
    List.iter (fun (i, x) -> Hashtbl.replace table i x) keyed;
    fun i -> Hashtbl.find_opt table i
  end

let ancestor_probe r2 ~anc ~desc =
  let probe = id_table (R2.id_of_node r2) anc in
  let out = ref [] in
  List.iter
    (fun d ->
      List.iter
        (fun aid ->
          match probe aid with
          | Some a -> out := { anc = a; desc = d } :: !out
          | None -> ())
        (R2.rancestors r2 (R2.id_of_node r2 d)))
    desc;
  normalize r2 !out

let parent_child r2 ~parent ~child =
  let probe = id_table (R2.id_of_node r2) parent in
  let out = ref [] in
  List.iter
    (fun c ->
      match R2.rparent r2 (R2.id_of_node r2 c) with
      | Some pid -> (
        match probe pid with
        | Some p -> out := { anc = p; desc = c } :: !out
        | None -> ())
      | None -> ())
    child;
  normalize r2 !out

(* Stack-tree merge over interval labels (Al-Khalifa et al. style): both
   inputs sorted by pre rank; the stack holds the current chain of open
   ancestors. *)
let stack_tree pp ~anc ~desc =
  let pre n = (Baselines.Prepost.label_of pp n).Baselines.Prepost.pre in
  let post n = (Baselines.Prepost.label_of pp n).Baselines.Prepost.post in
  let anc = List.sort (fun a b -> Stdlib.compare (pre a) (pre b)) anc in
  let desc = List.sort (fun a b -> Stdlib.compare (pre a) (pre b)) desc in
  let out = ref [] in
  (* The stack is the chain of already-seen a-nodes whose subtrees contain
     the scan position; an entry contains node x iff its post rank exceeds
     x's (pre order is guaranteed by the scan). *)
  let stack = ref [] in
  let rec go anc desc =
    match (anc, desc) with
    | _, [] -> ()
    | [], d :: rest ->
      (* Only the stack can contain ancestors of d. *)
      let pd = post d in
      stack := List.filter (fun a -> post a > pd) !stack;
      List.iter (fun a -> out := { anc = a; desc = d } :: !out) !stack;
      go [] rest
    | a :: arest, d :: drest ->
      if pre a < pre d then begin
        (* Entering a: first close ancestors whose subtree ended. *)
        stack := List.filter (fun x -> post x > post a) !stack;
        stack := a :: !stack;
        go arest desc
      end
      else begin
        let pd = post d in
        stack := List.filter (fun x -> post x > pd) !stack;
        List.iter (fun x -> out := { anc = x; desc = d } :: !out) !stack;
        go anc drest
      end
  in
  go anc desc;
  (* Normalize like the others, but without a Ruid2 context: order by
     (desc pre, anc pre descending). *)
  List.sort
    (fun p q ->
      let c = Stdlib.compare (pre p.desc) (pre q.desc) in
      if c <> 0 then c else Stdlib.compare (pre q.anc) (pre p.anc))
    !out

(* Stack-tree merge over document-order extents [(rank, rank_end)]: the
   same O(|A| + |D| + output) scan as [stack_tree], but the interval comes
   from a shared array-backed index (e.g. [Rxpath.Doc_index.extent]) — no
   prepost baseline needs to be built.  [x] contains [d] iff
   [fst x < fst d && fst d <= snd x]; since the scan delivers stack entries
   in ascending rank, the containment test against the scan position only
   needs the extent end. *)
let extent_merge ~extent ~anc ~desc =
  let dec l =
    List.map (fun n -> (extent n, n)) l
    |> List.sort (fun ((a, _), _) ((b, _), _) -> Stdlib.compare a b)
  in
  let anc = dec anc and desc = dec desc in
  let out = ref [] in
  (* Entries are ((rank, rank_end), node) of already-seen a-nodes whose
     extent still covers the scan position. *)
  let stack = ref [] in
  let rec go anc desc =
    match (anc, desc) with
    | _, [] -> ()
    | [], ((rd, _), d) :: rest ->
      stack := List.filter (fun ((_, ea), _) -> ea >= rd) !stack;
      List.iter (fun (_, a) -> out := { anc = a; desc = d } :: !out) !stack;
      go [] rest
    | (((ra, _), _) as ha) :: arest, (((rd, _), d) as hd) :: drest ->
      if ra < rd then begin
        (* Entering a: close entries whose extent ended before it.  Unlike
           post labels, an ancestor's extent END can coincide with a
           descendant's (last-child chains), so the keep test is
           "still covers a's rank", not "ends strictly later". *)
        stack := List.filter (fun ((_, ex), _) -> ex >= ra) !stack;
        stack := ha :: !stack;
        go arest (hd :: drest)
      end
      else begin
        stack := List.filter (fun ((_, ex), _) -> ex >= rd) !stack;
        List.iter (fun (_, x) -> out := { anc = x; desc = d } :: !out) !stack;
        go (ha :: arest) drest
      end
  in
  go anc desc;
  List.sort
    (fun p q ->
      let c = Stdlib.compare (fst (extent p.desc)) (fst (extent q.desc)) in
      if c <> 0 then c
      else Stdlib.compare (fst (extent q.anc)) (fst (extent p.anc)))
    !out
