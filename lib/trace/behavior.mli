(** Ground-truth outcome models for static branches.

    Since the paper's workloads (MySQL under TPC-C, Clang building LLVM, …)
    are driven by inputs we cannot reproduce, each synthetic static branch
    carries a generative model of its direction.  The model families are
    chosen so that every predictor in the study has branches it can and
    cannot learn (see DESIGN.md §2):

    - biased / loop branches: easy for any online predictor while resident;
    - short-raw-history functions: what classic 4b/8b ROMBF can encode;
    - hashed-long-history formulas: what Whisper's hashed history
      correlation targets (lengths 32–1024, paper Fig. 6);
    - parity over long windows: representable by none of the read-once
      formula families (the paper's "Others" slice of Fig. 7) but learnable
      by capacity-unconstrained history predictors;
    - data-dependent randomness: the paper's conditional-on-data class,
      unlearnable by every history-based scheme. *)

type kind =
  | Always_taken
  | Never_taken
  | Bias of float  (** taken with the given probability, i.i.d. *)
  | Loop of { period : int }
      (** taken [period-1] consecutive times, then not-taken once *)
  | Short_formula of { len : int; table : int }
      (** direction = bit [raw-history] of [table]; [len <= 6] recent raw
          outcomes index the truth table *)
  | Hashed_formula of { len_idx : int; formula_id : int }
      (** direction = extended-ROMBF formula (by 15-bit id) applied to the
          8-bit XOR-folded hash of the last [lengths.(len_idx)] outcomes *)
  | Parity of { len : int; step : int }
      (** direction = parity of outcomes at ages [0, step, 2*step, ... < len] *)
  | Ctx_prf of { len : int; seed : int; p_taken : float }
      (** direction = biased pseudo-random function of the raw last-[len]
          outcomes (len 9–16): each history context has a fixed direction
          drawn with bias [p_taken].  Memorizable by any predictor with
          enough capacity, but essentially unlearnable by read-once
          formulas over a hashed history — the branch population that
          makes the paper's capacity class bigger than the profile-guided
          techniques can fix *)
  | Random of float  (** conditional-on-data: taken with probability p *)

type t = { kind : kind; noise : float }
(** [noise] is an i.i.d. probability of flipping the model's direction,
    bounding every predictor's achievable accuracy on this branch. *)

(** Mutable evaluation context shared by all branches of one running
    application: the real global history, the folded hash registers for
    each candidate length, and per-branch loop counters. *)
type ctx

val make_ctx :
  lengths:int array -> n_branches:int -> chunk:int -> ctx
(** [lengths] is the geometric history-length series; [chunk] the hash
    width (8 in the paper).  The history keeps twice the longest length
    (at least 64 outcomes).
    @raise Invalid_argument unless [0 < chunk <= 62] and every length is
    in \[1, 2{^24}\]. *)

val lengths : ctx -> int array

val outcome : ctx -> int -> int
(** [outcome ctx age] is the recorded outcome [age] branches back (0 is
    the most recent), as 0 or 1; outcomes never recorded, and those at
    or beyond the history's depth (64, or twice the longest length),
    read as 0.  @raise Invalid_argument if [age < 0]. *)

val hash_at : ctx -> int -> int
(** [hash_at ctx len_idx] is the current folded hash for series index
    [len_idx]. *)

val eval : ctx -> rng:Whisper_util.Rng.t -> branch:int -> t -> bool
(** Compute the next direction of [branch] given the current context.
    Does {b not} record the outcome; callers must follow with {!record}. *)

val record : ctx -> bool -> unit
(** Push a resolved direction into the shared history and every folded
    register. *)

(** {2 Block walks}

    The generator's per-event loop: a program's blocks visited session by
    session, each block's branch resolved by {!eval} and {!record}ed, a
    taken loop-back branch re-executing its block. *)

type walk

val walk :
  ctx ->
  rng:Whisper_util.Rng.t ->
  behaviors:t array ->
  loop_back:bool array ->
  sessions:int array array ->
  sums:float array ->
  walk
(** [walk ctx ~rng ~behaviors ~loop_back ~sessions ~sums] starts at the
    first block of a session drawn by {!Whisper_util.Rng.sample_cumulative}
    over [sums], the running sums of the sessions' weights.
    [behaviors.(b)] and [loop_back.(b)] describe block [b]; [ctx] must
    have a loop counter per block.  A hashed-formula block resolves its
    truth table the first time it runs, and keeps it.  The walk reads
    the arrays it is given, without copying them: do not modify them
    afterwards.
    @raise Invalid_argument if a session is empty or names a block
    outside [behaviors], or the arrays disagree in length. *)

val walk_fill : walk -> n:int -> block:int array -> taken:Bytes.t -> unit
(** Advance the walk by [n] events: event [i]'s block goes to
    [block.(i)] and its direction to bit [i] of [taken] (bit [i] of byte
    [i/8]).  Allocates nothing.
    @raise Invalid_argument if a buffer is shorter than [n], or a session
    was modified to name a block outside the program. *)

val walk_block : walk -> int
(** The block the walk's next event executes. *)

val formula_leaves : int
(** Leaf count of hashed-formula behaviours (8 — one per hash bit). *)

val kind_name : kind -> string
val pp : Format.formatter -> t -> unit
