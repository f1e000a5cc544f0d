(** Textual Limple printer.

    The output is accepted by {!Parser}, so programs round-trip between
    in-memory and textual forms.  Method bodies declare every local with
    its type up front (in first-occurrence order, excluding parameters
    and [this]) so the parser can reconstruct typed variables without
    inference.

    There is one printer: {!add_program} appends the text to a
    [Buffer.t] in a single pass, and the [*_to_string] functions are
    wrappers around it.  The text is also the content part of every
    result-cache key ([Store.key] prints into the buffer it digests), so
    its bytes are pinned by golden tests: changing them moves every cache
    key. *)

open Types

val add_program : Buffer.t -> program -> unit
(** Entry declarations first, then every class. *)

val program_to_string : program -> string
val stmt_to_string : stmt -> string
val ty_to_string : ty -> string
