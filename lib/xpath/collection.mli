(** A collection of independently numbered documents (Section 4, "Managing
    large XML trees ... various data sources scattered over several sites").

    Each document keeps its own 2-level numbering; collection-wide
    identifiers pair a document handle with the document-local ruid.
    Structural relations are decidable between any two identifiers: nodes
    of different documents are simply unrelated. *)

type doc_id = private int

type gid = { doc : doc_id; id : Ruid.Ruid2.id }
(** Collection-wide identifier. *)

val pp_gid : Format.formatter -> gid -> unit

type t

val create : ?max_area_size:int -> unit -> t

val add : t -> name:string -> Rxml.Dom.t -> doc_id
(** Number and register a document.  Registration is O(1) amortized (the
    backing store doubles) and the name lookup behind the duplicate check
    is a hash probe, so cataloguing a 100k-document corpus stays linear.
    @raise Invalid_argument on a duplicate name. *)

val doc_count : t -> int
val names : t -> string list
val find : t -> string -> doc_id option
val name_of : t -> doc_id -> string
val ruid : t -> doc_id -> Ruid.Ruid2.t

val gid_of_node : t -> doc_id -> Rxml.Dom.t -> gid
val node_of_gid : t -> gid -> Rxml.Dom.t option

val relationship : t -> gid -> gid -> Ruid.Rel.t option
(** [None] when the identifiers live in different documents. *)

val query : t -> string -> (doc_id * Rxml.Dom.t list) list
(** Evaluate an XPath expression against every document (numbering-driven
    engine); documents with no match are omitted. *)

val total_nodes : t -> int
val aux_memory_words : t -> int
(** Sum of all documents' K tables: the collection's resident state. *)
