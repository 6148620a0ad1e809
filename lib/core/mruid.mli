(** Fully recursive multilevel ruid (Section 2.4, Definition 4) with no
    flat integers anywhere below the top level.

    An l-level identifier is [{theta, (a_(l-1), b_(l-1)), ..., (a_1, b_1)}]:
    the original UID [theta] of the topmost frame, then one (local index,
    root indicator) pair per level, the document level (level 1) last.
    Each level's tree is a mirror of the frame of the level below, and
    every K table is keyed by the {e identifier prefix} of the area — the
    paper's [{theta, (a_(l-1), b_(l-1)), ..., (a_(j+1), b_(j+1))}] — so
    each stored component stays bounded by the area budget and only the
    topmost, small frame is enumerated by the original UID (Example 3: the
    2-level identifier [{8, (a, true)}] becomes [{2, (4, false), (a,
    true)}] at 3 levels, its last component unchanged).  That makes the
    Section 3.1 claim literal: documents whose virtual enumeration exceeds
    any native integer are numbered with a few levels of small
    components.

    [rparent] is the recursive generalization of Fig. 6: resolving the
    upper area of an area-root component is itself an [rparent] call one
    level up, terminating at the top-level parent formula (1).  All
    derivations ([rparent], ancestors, relations) read only the per-level K
    tables and the top-level kappa. *)

type comp = { index : int; is_root : bool }

type id = { top : int; comps : comp list }
(** Components from the level below the top down to the document level
    (empty only for internal top-level identifiers). *)

val pp_id : Format.formatter -> id -> unit
val id_to_string : id -> string
val id_equal : id -> id -> bool

type t

val build : ?max_levels:int -> ?max_area_size:int -> ?top_size:int -> Rxml.Dom.t -> t
(** Recursively partition until the top tree has at most [top_size] nodes
    (default 64) or the numbering has [max_levels] levels (default 7, at
    least 2): [levels t <= max_levels].
    @raise Uid.Overflow only if the level budget is exhausted while the top
    tree is still too large to enumerate natively. *)

val levels : t -> int
(** In the paper's counting: a plain 2-level ruid is 2; a document small
    enough to skip partitioning entirely is 1 (the original UID). *)

val id_of_node : t -> Rxml.Dom.t -> id
val node_of_id : t -> id -> Rxml.Dom.t option

val rparent : t -> id -> id option
(** Recursive Fig. 6; pure K-table work. *)

val rancestors : t -> id -> id list
val relationship : t -> id -> id -> Rel.t

val insert_node : ?slack:int -> t -> parent:Rxml.Dom.t -> pos:int -> Rxml.Dom.t -> int
(** Insert a fresh leaf and re-enumerate the single affected document-level
    area (Section 3.2); K keys are identifier prefixes of the update-stable
    frame, so only that area's rows are touched.  Returns the number of
    pre-existing nodes whose identifier changed. *)

val delete_subtree : t -> Rxml.Dom.t -> int
(** Cascading delete, confined like {!insert_node}.
    @raise Invalid_argument on the tree root. *)

val max_component_bits : t -> int

val total_label_bits : t -> int
(** Sum over document nodes of the full identifier size in bits (all
    components plus root flags). *)

val addressable : e:int -> levels:int -> Bignum.Bignat.t
(** Section 3.1: if one level can enumerate [e] nodes, [levels] levels can
    enumerate about [e{^levels}]. *)

val area_count : t -> int
(** Total K rows across all levels. *)

val aux_memory_words : t -> int

val check_consistency : t -> unit
