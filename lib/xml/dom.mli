(** Mutable DOM-style tree for XML documents.

    The paper's setting is a parsed XML document exposed as a tree of
    elements, attributes and text (DOM Level 2); numbering schemes label the
    element tree.  This module provides that substrate: a compact mutable
    tree with parent pointers, child insertion/removal at arbitrary
    positions (needed by the structural-update experiments) and the standard
    traversals.

    Every node carries a process-unique serial number, stable across
    structural edits, used as a hashtable key by the numbering layers. *)

type t = {
  serial : int;  (** unique, stable id of the node *)
  mutable kind : kind;
  mutable parent : t option;
  mutable children : t list;
}

and kind =
  | Document
  | Element of { mutable tag : string; mutable attrs : (string * string) list }
      (** fields inline: one block per element, no separate record *)
  | Text of string
  | Comment of string
  | Pi of string * string  (** target, data *)

(** {1 Construction} *)

val document : unit -> t
val element : ?attrs:(string * string) list -> string -> t
val text : string -> t
val comment : string -> t
val pi : string -> string -> t

(** {1 Accessors} *)

val tag : t -> string
(** Tag of an element, [""] for other kinds. *)

val attr : t -> string -> string option
val set_attr : t -> string -> string -> unit
val is_element : t -> bool
val is_text : t -> bool

val text_content : t -> string
(** Concatenated text of all descendant text nodes. *)

val root_element : t -> t
(** The single element child of a [Document] node.
    @raise Not_found if there is none. *)

(** {1 Structure edits} *)

val append_child : t -> t -> unit
(** [append_child parent child]. @raise Invalid_argument if [child] already
    has a parent.  Costs O(degree) — builders appending many siblings should
    collect them and call {!append_children} once. *)

val append_children : t -> t list -> unit
(** [append_children parent children] appends [children] in order, in
    O(degree + |children|) total — the bulk form parsers use to keep wide
    nodes linear.  The children share one [Some parent] cell.
    @raise Invalid_argument if any child already has a parent. *)

val insert_child : t -> pos:int -> t -> unit
(** [insert_child parent ~pos child] inserts [child] so that it becomes the
    [pos]-th child (0-based); [pos] is clamped to [0 .. degree]. *)

val remove_child : t -> t -> unit
(** [remove_child parent child] detaches [child].
    @raise Invalid_argument if [child] is not a child of [parent]. *)

val child_index : t -> int
(** 0-based position among the parent's children.
    @raise Invalid_argument on a parentless node. *)

(** {1 Traversal} *)

val degree : t -> int
val nth_child : t -> int -> t option
val iter_preorder : (t -> unit) -> t -> unit
val fold_preorder : ('a -> t -> 'a) -> 'a -> t -> 'a
val preorder : t -> t list
(** All nodes of the subtree in document order, root first. *)

val elements : t -> t list
(** Element nodes of the subtree in document order (includes the root if it
    is an element). *)

val size : t -> int
val depth_of : t -> int
(** Edge distance from [t] up to its root. *)

val ancestors : t -> t list
(** Strict ancestors, nearest first. *)

val descendants : t -> t list
(** Strict descendants in document order. *)

val is_ancestor : anc:t -> desc:t -> bool
(** Strict ancestorship via parent pointers. *)

val document_order : root:t -> t -> t -> int
(** Preorder comparison of two nodes under [root]; 0 iff same node. O(n). *)

val equal : t -> t -> bool
(** Physical identity (serial equality). *)

val clone : t -> t
(** Deep copy of a subtree with fresh serials; the copy is detached. *)

(** {1 Path copying}

    A versioned tree ({!Ruid.Ruid2} after a clone) never edits a node that
    an older version can reach.  It makes a new {e version} of each node
    on the path from a change up to the root and leaves the rest shared.
    A shared node's [parent] then names an older version of its parent:
    same serial and payload, possibly other children.  Code that reads
    such a tree may use [parent] for identity and payload only, and must
    reach a parent's children through the version's own tables. *)

val version : t -> t
(** A new record for the same node: same serial, payload, parent and
    child list.  The copy is the caller's to edit; the payload ([kind]) is
    shared and must not be edited through either. *)

val replace_child : t -> old:t -> t -> unit
(** [replace_child parent ~old by] puts [by] where the child with [old]'s
    serial stands and makes [parent] its parent.  For path copying:
    [parent] must be a fresh {!version}. *)

val pp_kind : Format.formatter -> t -> unit
