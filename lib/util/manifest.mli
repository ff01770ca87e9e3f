(** Content-keyed work-item manifests for sharded sweeps.

    A manifest freezes {e what} a sweep will execute: an ordered array
    of work items, each carrying the item's result key (the same string
    the result cache files it under) and an opaque spec blob the
    executing layer decodes.  The manifest's {!id} is a digest of its
    canonical encoding, so the same fleet configuration always produces
    the same id — and a completion journal (see {!Journal}) binds itself
    to that id, which is what makes resuming after [kill -9] safe: a
    journal can never be replayed against a different item set.

    Files carry a magic tag and a varint format version, decode through
    count-guarded {!Binio} reads (every failure a typed
    {!Whisper_error.t} with stage [Manifest]), and are stored with
    {!Durable.write_atomic}, so readers never observe a torn manifest.
    {!Journal.open_or_resume} is how sweep and serve use them. *)

type item = { key : string; spec : string }
(** [key] is the item's stable result key; [spec] is an opaque,
    layer-defined description sufficient to re-execute the item. *)

type t = { meta : (string * string) list; items : item array }
(** [meta] records the sweep-wide parameters (event count, baseline KB,
    sampling seed…) as ordered name/value pairs — part of the content
    key, so changing any of them changes {!id}. *)

val format_version : int

val make : meta:(string * string) list -> item array -> t

val id : t -> string
(** Hex digest of the canonical encoding — the manifest's content key. *)

val encode : t -> bytes

val decode : bytes -> (t, Whisper_error.t) result
(** Total: truncation, bad magic, version skew and oversized counts all
    come back as typed [Error]s (stage [Manifest]). *)

val save : t -> path:string -> unit
(** {!Durable.write_atomic} of {!encode}.
    @raise Sys_error or [Unix.Unix_error] when the destination is not
    writable. *)

val load : path:string -> (t, Whisper_error.t) result
(** [Error] with kind [Malformed] when the file is missing or
    unreadable, otherwise {!decode} of its contents. *)
