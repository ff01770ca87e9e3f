(** Deterministic pseudo-random number generation.

    All stochastic components of the reproduction (workload generation,
    randomized formula testing, behaviour sampling) draw from this
    SplitMix64-based generator so that every experiment is reproducible
    from a single integer seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Two generators created with
    the same seed produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams of
    the parent and child are statistically independent. *)

val next : t -> int64
(** [next t] returns the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val bits : t -> int -> int
(** [bits t n] returns [n] uniform random bits as a non-negative int,
    [0 <= n <= 62]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool
(** A fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val geometric : t -> float -> int
(** [geometric t p] samples the number of failures before the first success
    of a Bernoulli([p]) process; [p] must be in (0, 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle (Durstenfeld variant), as used by the
    paper's randomized formula testing (§III-B). *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0 .. n-1]. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element.  @raise Invalid_argument on empty array. *)

val sample_weighted : t -> (float * 'a) array -> 'a
(** [sample_weighted t arr] picks an element with probability proportional
    to its weight.  Weights must be non-negative and not all zero. *)

val running_sums : float array -> float array
(** [running_sums w] is the array of prefix sums [w.(0)], [w.(0) +. w.(1)],
    ..., accumulated left to right — the same float sums
    {!sample_weighted} forms while it scans. *)

val sample_cumulative : t -> float array -> int
(** [sample_cumulative t sums] draws an index with probability
    proportional to its weight, given the weights' {!running_sums}: a
    binary search, where {!sample_weighted} re-sums and scans.  Over the
    running sums of [Array.map fst arr] it makes the same draw and picks
    the same index as [sample_weighted t arr].
    @raise Invalid_argument if [sums] is empty or its total is not
    positive. *)
