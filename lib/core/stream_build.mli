(** Streaming ingest: chunked SAX feed → numbered document in one pass.

    The ingest path of the collection tier used to materialize each
    document twice — the full source text as one string, then a DOM — with
    a separate well-formedness scan in front.  This module folds the event
    stream of a {!Rxml.Sax.source} directly into the DOM and the per-node
    statistics (node count, maximal fan-out and nesting depth), all during
    the single pass; {!Ruid2.number} then numbers the finished tree.  Peak
    memory is the finished document plus one feed chunk, never document
    text + DOM, and the output is bit-identical to [Parser.parse_string] +
    {!Ruid2.number} (tested: sidecar and serialized XML byte-equal, equal
    {!Rxpath.Doc_index} ranks — so [Doc_index.build] consumes the result
    directly). *)

type stats = {
  nodes : int;  (** DOM nodes assembled, document node included *)
  elements : int;
  max_fanout : int;  (** maximal degree over the numbered tree *)
  max_depth : int;  (** maximal element nesting depth *)
}

type built = { doc : Rxml.Dom.t; r2 : Ruid2.t; stats : stats }
(** [doc] is the document node; [r2] is numbered at [doc] or at its root
    element depending on [at]. *)

val of_source :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_area_size:int ->
  ?max_area_depth:int ->
  ?adjust:bool ->
  ?at:[ `Document | `Root_element ] ->
  Rxml.Sax.source ->
  built
(** One pass over the feed.  [max_depth] is the nesting budget (default
    10000, as {!Rxml.Parser}); the numbering knobs are those of
    {!Ruid2.number}.  [at] picks the numbering root (default [`Document],
    the server's convention; [`Root_element] matches [ruidtool]'s file
    commands).
    @raise Rxml.Parser.Parse_error on malformed input. *)

val of_channel :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_area_size:int ->
  ?max_area_depth:int ->
  ?adjust:bool ->
  ?at:[ `Document | `Root_element ] ->
  ?chunk:int ->
  in_channel ->
  built

val of_file :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_area_size:int ->
  ?max_area_depth:int ->
  ?adjust:bool ->
  ?at:[ `Document | `Root_element ] ->
  ?chunk:int ->
  string ->
  built
(** Stream the file at the path through {!of_channel} — the whole file is
    never resident. *)

val of_string :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_area_size:int ->
  ?max_area_depth:int ->
  ?adjust:bool ->
  ?at:[ `Document | `Root_element ] ->
  string ->
  built
