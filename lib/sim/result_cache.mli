(** Persistent on-disk cache of timing-model results, so re-running
    [whisper experiment] only simulates configurations that changed.

    Entries live under a cache directory (default [_whisper_cache/]),
    one file per result ([.res], magic [WRSC]) named by the digest of
    its key — the same [technique_key × app × inputs × events ×
    baseline_kb] string the in-memory memo table uses.  A
    {!Whisper_util.Keyed_store} instance: entries that fail to decode
    are dropped and counted, writes are atomic and best effort, and the
    counters go to telemetry under [result_cache.*].  A fleet run
    surfaces the totals in its report summary rather than silently
    losing cache effectiveness. *)

include
  Whisper_util.Keyed_store.S
    with type value := Whisper_pipeline.Machine.result

val default_dir : string
(** ["_whisper_cache"] *)

val create :
  ?corrupt:(key:string -> bytes -> bytes) -> ?dir:string -> unit -> t
(** As {!Whisper_util.Keyed_store.S.create}, with [dir] defaulting to
    {!default_dir}. *)
