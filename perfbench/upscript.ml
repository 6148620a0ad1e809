(* Update scripts: positional UPDATE operations generated against a mirror
   of one document.

   Every operation inserts a [<bid>] leaf under a Zipf-hot parent, until
   the document holds [window] such leaves; from then on each insert
   alternates with deleting the oldest live one, so the document's size —
   and with it the per-update cost of renumbering and publication — stays
   stationary however long a run lasts.  The bounded fan-out growth also
   keeps every area's local identifiers far from overflow.

   Ranks are preorder positions over the whole document (document node =
   rank 0, text nodes included), the addressing {!Rstorage.Wal.apply}
   resolves on the server. *)

module Dom = Rxml.Dom
module Rng = Rworkload.Rng
module Wal = Rstorage.Wal

let leaf_tag = "bid"

type t = {
  ops : Wal.op array;
  live : int array;  (** [//bid] count after each operation *)
  nodes : int array;  (** document size after each operation *)
  base_nodes : int;  (** document size before the first operation *)
  window : int;
}

(* Preorder rank of [node] under [root]. *)
let rank_of root node =
  let i = ref 0 and found = ref (-1) in
  (try
     Dom.iter_preorder
       (fun n ->
         if n == node then begin
           found := !i;
           raise Exit
         end;
         incr i)
       root
   with Exit -> ());
  if !found < 0 then invalid_arg "Upscript.rank_of: node not in tree";
  !found

(* Most parents the Zipf draw ranges over. *)
let max_parents = 512

(* [generate ~seed ~window ~n doc] mutates [doc] (a document node) into the
   state after the [n] operations it returns. *)
let generate ~seed ~window ~n doc =
  if window < 1 then invalid_arg "Upscript.generate: window < 1";
  let rng = Rng.create seed in
  let parents = Array.of_list (Dom.elements doc) in
  Rng.shuffle rng parents;
  let parents = Array.sub parents 0 (min max_parents (Array.length parents)) in
  let np = Array.length parents in
  if np = 0 then invalid_arg "Upscript.generate: no element to insert under";
  let base_nodes = Dom.size doc in
  let live = Queue.create () in
  let size = ref base_nodes in
  let ops = Array.make n (Wal.Delete { rank = 1 }) in
  let live_after = Array.make n 0 and nodes_after = Array.make n 0 in
  for i = 0 to n - 1 do
    let delete = i >= window && (i - window) mod 2 = 0 in
    (if delete then begin
       let leaf = Queue.pop live in
       ops.(i) <- Wal.Delete { rank = rank_of doc leaf };
       (match leaf.Dom.parent with
       | Some p -> Dom.remove_child p leaf
       | None -> assert false);
       decr size
     end
     else begin
       let parent = parents.(Rng.zipf rng ~s:1.0 ~n:np - 1) in
       let pos = Rng.int rng (Dom.degree parent + 1) in
       ops.(i) <-
         Wal.Insert { parent_rank = rank_of doc parent; pos; tag = leaf_tag };
       let leaf = Dom.element leaf_tag in
       Dom.insert_child parent ~pos leaf;
       Queue.add leaf live;
       incr size
     end);
    live_after.(i) <- Queue.length live;
    nodes_after.(i) <- !size
  done;
  { ops; live = live_after; nodes = nodes_after; base_nodes; window }

(* [//bid] count after the first [k] operations. *)
let live_after t k = if k = 0 then 0 else t.live.(k - 1)
