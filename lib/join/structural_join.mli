(** Structural (ancestor-descendant) joins over numbered element sets.

    The paper's parent-derivation property feeds directly into the
    structural-join literature it cites (Li-Moon, Zhang et al.) and
    influenced: given two element lists A and D, find all pairs
    [(a, d)] with [a] an ancestor of [d].  Three algorithms are provided:

    - {!nested_loop}: one relation decision per pair — the baseline any
      numbering scheme supports.
    - {!ancestor_probe}: the UID-family algorithm.  For each [d], generate
      its ancestor {e identifiers} by pure arithmetic ([rancestor]) and
      probe a hash set of A's identifiers: O(|D| * depth), independent of
      |A|, no order requirements.  This is exactly the "identifiers of the
      ancestors of a node [are] generated quickly" use of Section 3.3.
    - {!stack_tree}: the classic merge with a stack over interval
      (pre/post) labels, O(|A| + |D| + output), requiring both inputs in
      document order.
    - {!extent_merge}: the same merge driven by document-order extents
      [(rank, rank_end)] from a shared array-backed index (e.g.
      [Rxpath.Doc_index.extent]) instead of a separately built prepost
      baseline.

    All return the same pair multiset; result order is normalized to
    (descendant document order, ancestor depth).

    The identifier-keyed probe tables ({!ancestor_probe}, {!parent_child})
    hash identifiers packed into a single immediate int (global, local,
    root flag) whenever both indices fit 31 bits, avoiding the structural
    record hash; oversized identifiers fall back to record keys
    transparently. *)

type pair = { anc : Rxml.Dom.t; desc : Rxml.Dom.t }

val nested_loop :
  Ruid.Ruid2.t -> anc:Rxml.Dom.t list -> desc:Rxml.Dom.t list -> pair list

val ancestor_probe :
  Ruid.Ruid2.t -> anc:Rxml.Dom.t list -> desc:Rxml.Dom.t list -> pair list

val stack_tree :
  Baselines.Prepost.t -> anc:Rxml.Dom.t list -> desc:Rxml.Dom.t list -> pair list
(** Inputs need not be pre-sorted; they are sorted by pre rank internally
    (sorting cost is reported separately by the E9 bench). *)

val extent_merge :
  extent:(Rxml.Dom.t -> int * int) ->
  anc:Rxml.Dom.t list ->
  desc:Rxml.Dom.t list ->
  pair list
(** Stack-tree merge over [(rank, rank_end)] extents: [extent n] must give
    the node's preorder rank and the rank of the last node of its subtree
    (inclusive), as [Rxpath.Doc_index.extent] does.  O(|A| + |D| + output)
    after the internal rank sorts; no prepost baseline required. *)

val parent_child :
  Ruid.Ruid2.t -> parent:Rxml.Dom.t list -> child:Rxml.Dom.t list -> pair list
(** The parent-child join: one [rparent] per candidate child, then a hash
    probe — O(|child|). *)
