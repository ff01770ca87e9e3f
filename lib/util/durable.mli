(** The file primitives all durable state goes through: the persistent
    caches ({!Keyed_store}), manifests and journals, serve's chunk and
    plan stores, and the CLI's output files.  The failure model is a
    killed process, whose writes the page cache keeps, so atomic
    replaces are not fsync'd; only {!Journal.append} fsyncs (DESIGN.md
    §17).  Depends on no other persistence module: {!Manifest},
    {!Journal} and {!Telemetry} all call it. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; existing ones are fine.
    @raise Unix.Unix_error when a component cannot be created. *)

val write_atomic : string -> bytes -> unit
(** [write_atomic path data] creates [path]'s parent directories, writes
    [data] to [<path>.<pid>.<domain>.tmp] and renames it over [path], so
    readers see the old file or the whole new one.  Pid and domain keep
    concurrent writers of one path (sweep workers share a cache
    directory) out of each other's temp files.  On failure the temp file
    is removed and the exception re-raised. *)

val read : string -> bytes option
(** The file's contents; [None] when it is missing or unreadable. *)
