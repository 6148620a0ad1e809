(** Immutable read views of the hosted collection.

    The service's reads never lock: each published snapshot holds, per
    document, a numbering that no writer will ever touch again and a
    prebuilt {!Rxpath.Engine_ruid} (or query planner) over it.
    Publication is a single [Atomic.set]; readers holding the previous
    snapshot keep a consistent world until they drop it.

    A numbering reaches a snapshot in one of three ways:
    - {e Hand-off} ({!host}, {!rehost}).  A numbering that was just built
      or recovered — the service's startup documents, ADDDOC/ADDCHUNK, a
      committed ADOPT, a follower's bootstrap or checkpoint reinstall — is
      published as is, with
      no copy; the caller gives it up for good.  A writer takes an O(1)
      {!Ruid.Ruid2.clone} of the published numbering, which shares its
      tree and tables, so a document is resident about once whether or
      not anybody writes it.
    - {e Derivation} ({!advance}).  A published version's successor is a
      clone of it plus a replay of the batch's operations — bit-identical
      identifiers, so the paper's update locality is preserved rather
      than renumbered away.  The replay copies only what the batch
      touches: the renumbered areas (§3.2), the nodes on the path from
      each change up to the root, the edited order keys and the postings
      of the touched tags.  Everything else is shared with the previous
      version.  Every version the service publishes after the first is
      derived this way, commit batch and replicated stream batch alike.
    - {e Copy} ({!capture}, {!add_doc}).  DOM clone plus the
      {!Ruid.Persist} sidecar round-trip, for callers that go on editing
      the tree they pass directly: benchmark replays.  The service copies
      nothing (an empty [capture] is its first snapshot's base).

    Sharing has one rule for readers: a node's [parent] pointer may name
    an older version of its parent (same serial and tag, possibly other
    children), so it serves identity and payload only; parents' children
    are reached through the numbering ([rparent], §3.3) or the index.

    An update re-publishes only the document it touched; untouched
    documents are shared structurally between consecutive snapshots, so
    publish cost is the touched areas and paths, not O(document) and not
    O(collection).

    Several commit pipelines may publish concurrently: each derives a
    successor from the snapshot it re-reads, stamps it with {!next_stamp},
    and installs it with [Atomic.compare_and_set], retrying from the new
    current on a lost race.  Pipelines own disjoint document sets, so the
    per-document copies never conflict — only the stamp is contended.

    A published snapshot is immutable and safe to read from any number of
    threads {e and domains} concurrently: every constituent structure
    (numbering tables, document-order index, tag postings) is completed
    before publication, later versions only add new records beside the
    shared ones, and evaluation never writes — the invariant the parallel
    read executor relies on. *)

type doc = private {
  name : string;
  root : Rxml.Dom.t;  (** the tree [r2] numbers *)
  r2 : Ruid.Ruid2.t;
      (** the published numbering: never written once published (a writer
          works on its own {!Ruid.Ruid2.clone}) *)
  index : Rxpath.Doc_index.t;
      (** document-order index and tag postings over [r2], shared by the
          engine and the planner; {!advance} derives the successor's *)
  engine : Rxpath.Eval.engine;
  planner : Rxpath.Planner.t option;
      (** cost-based query planner over this copy, present when the
          publisher passed [?planner] (the service always does).  Its fallback engine {e is} [engine]
          (they share one document-order index); its DataGuide advances
          incrementally across {!advance} publications. *)
  doc_version : int;
      (** version of the last update folded into {e this} copy — the
          per-document publication cursor.  It is per document, never the
          global [version] stamp, because concurrent commit groups publish
          versions out of order: one group's publication can stamp the
          snapshot past a version another group's queued update of a
          different document still carries. *)
  live : bool;
      (** [false] once the document was retired ({!retire_doc}): the slot
          survives — indices never shift — but the document stops being
          listed, queried or checked *)
}

type t = private {
  version : int;
      (** strictly increasing publication stamp, at least the version of
          every update folded into any document (result-cache keys embed
          it, so no two distinct snapshots may share a stamp) *)
  published_at : float;  (** unix time of publication *)
  docs : doc array;
  index : int Map.Make(String).t;
      (** name -> slot, shared structurally across publications; retains
          retired names (they address the revivable slot) *)
}

val capture :
  ?planner:Rxpath.Planner.shared -> version:int ->
  (string * Ruid.Ruid2.t) list -> t
(** Copy every master document (DOM clone + sidecar round-trip), every
    cursor at [version]; the masters stay the caller's to mutate, even
    through direct tree edits.  Callers that update only through
    {!Ruid.Ruid2} hand off with {!host} and keep a clone instead, at no
    copy (the service).  With [?planner], every
    document gets a query planner built over the shared plan cache and
    strategy counters (one [shared] serves the whole collection across all
    publications).
    @raise Invalid_argument on a duplicate name. *)

val rehost :
  t -> version:int -> doc_version:int -> doc_index:int -> Ruid.Ruid2.t -> t
(** A new snapshot sharing every document except [doc_index], which
    becomes this numbering as is, by hand-off as {!host} publishes, with
    its cursor at [doc_version] — a follower's reinstall of a document
    from a checkpoint it just recovered.  The caller must never write the
    numbering again. *)

val next_stamp : t -> floor:int -> int
(** The stamp a successor of this snapshot must carry: strictly above
    [version] and at least [floor] (the highest update version the
    successor folds in).  Concurrent publishers recompute it against the
    freshly re-read predecessor on every CAS retry, which keeps stamps
    strictly increasing across whichever publication wins. *)

val advance :
  t -> version:int -> (int * Rstorage.Wal.op list * int) list -> t * int
(** Incremental publication: for each [(doc_index, ops, doc_version)],
    derive the new version from {e this} snapshot's — an O(1)
    {!Ruid.Ruid2.clone} plus a replay of the batch's operations — instead
    of a sidecar serialize + reparse, leaving the
    document's cursor at [doc_version].  [Rstorage.Wal.apply] is
    deterministic, so the result is bit-identical to re-capturing the
    master that applied the same operations, at the cost of the touched
    areas only: each operation resolves its ranks through the order index
    (no tree walk), renumbers one area, path-copies the nodes from the
    change up to the root, and edits O(depth) order keys; the index keeps
    every posting array but the touched tags', which it copies
    (O(their cardinality)); an engine over it is O(1).
    The order index compacts — one O(nodes) rebuild — once its edits
    outgrow an eighth of the document.  Untouched documents (cursors
    included) are shared.  Planner documents advance
    their DataGuide incrementally: each operation's label-path delta is
    computed against the pre-apply version and folded into a clone of the
    previous guide (readers of the previous snapshot keep theirs).
    Returns the snapshot and the total number of area renumberings
    performed (the rebuilt surface).
    [Rstorage.Wal.apply] is deterministic on the clone, so no operation
    the master applied makes it raise; a publisher that meets an exception
    anyway quarantines the document.
    @raise Rstorage.Wal.Replay_error if an operation does not apply. *)

val add_doc :
  t -> ?planner:Rxpath.Planner.shared -> version:int -> name:string ->
  Ruid.Ruid2.t -> t * int
(** Publish a snapshot hosting one more document, copied from [master]
    (which stays the caller's) with its cursor at [version]; returns the
    new snapshot and the slot the document landed in.  A name mapping to a
    {e retired} slot revives that slot in place (the rebalance round
    trip); every other document's index is unchanged.
    @raise Invalid_argument when the name is already live. *)

val host :
  t -> ?planner:Rxpath.Planner.shared -> version:int ->
  (string * Ruid.Ruid2.t) list -> t * int list
(** The ownership hand-off: publish a snapshot hosting these documents
    {e without copying them} — each numbering becomes the published copy,
    and the planner (or engine) is built over it in place.  The caller
    must never write one of them again; a writer clones it
    (an O(1) {!Ruid.Ruid2.clone}) first.  Slots are assigned as by {!add_doc}
    and returned in list order; every cursor is at [version].
    @raise Invalid_argument when a name is already live or repeats. *)

val retire_doc : t -> version:int -> doc_index:int -> t
(** Publish a snapshot with slot [doc_index] marked dead.  The slot's
    memory is retained until a revival — the price of never shifting an
    index out from under the commit queue. *)

val find : t -> string -> (int * doc) option
(** Live documents only; a retired name answers [None]. *)

val doc_names : t -> string list
(** Live documents only. *)

val live_docs : t -> doc list
(** The live documents, slot order (= document registration order). *)

val parse : string -> Rxpath.Ast.union_path
(** Parse an XPath union expression the way {!count}/{!query} do.
    @raise Failure on an unparsable expression. *)

val query_doc : doc -> Rxpath.Ast.union_path -> Rxml.Dom.t list
(** Matching nodes of one document, document order.  Parsing and
    evaluation split so the service can evaluate per document (the result
    cache keys per document) while parsing at most once per request.
    Routes through the planner when the document carries one (identical
    node sets either way — property-tested); the engine otherwise. *)

val count_doc : ?key:string option -> doc -> Rxpath.Ast.union_path -> int
(** [List.length (query_doc d u)]; a planned document counts its answer
    without building the node list.  [key] is the plan-cache key when the
    caller computed it once for the request
    ({!Rxpath.Planner.plan_for}). *)

val query_doc_first :
  ?key:string option -> doc -> k:int -> Rxpath.Ast.union_path ->
  int * Rxml.Dom.t list
(** The answer's size and its first [k] nodes in document order — what a
    QUERY reply lists; a planned document turns only those [k] into
    nodes.  [key] as for {!count_doc}. *)

val explain_doc : doc -> string -> (string, string) result
(** Rendered query plan with per-operator estimated vs. actual
    cardinalities and timings ({!Rxpath.Planner.explain}); [Error] when the
    document has no planner (published without [?planner]).
    Executes the query (uncached) to measure actuals. *)

val count : t -> string -> (string * int) list
(** Per-document hit counts of an XPath expression; every document listed
    (zero counts included — the torn-read tests need the stable shape).
    @raise Failure on an unparsable expression. *)

val query : t -> string -> (string * Rxml.Dom.t list) list
(** Matching nodes per document, documents with no match omitted. *)

val check : t -> string -> unit
(** Deep-verify the named document's numbering ({!Ruid.Ruid2.check}): the
    torn-read canary — it fails loudly on any half-published state.
    @raise Failure if the snapshot is inconsistent.
    @raise Not_found for an unknown document name. *)
