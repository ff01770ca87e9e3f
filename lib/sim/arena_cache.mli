(** Persistent on-disk cache of packed trace-replay arenas
    ({!Whisper_trace.Arena}), so repeated CLI invocations skip the
    decode-once generation step entirely and replay straight from disk.

    A {!Whisper_util.Keyed_store} instance like {!Result_cache}: one
    file per arena ([.arena], magic [WARC]) named by the digest of its
    key, the envelope's own format version on top of the arena codec's,
    corrupt or stale entries dropped and counted (the caller
    regenerates), atomic best-effort writes, and telemetry counters
    under [arena_cache.*]. *)

include Whisper_util.Keyed_store.S with type value := Whisper_trace.Arena.t

val default_subdir : string
(** ["arenas"] — the subdirectory of the result-cache root the runner
    places arena entries under. *)
