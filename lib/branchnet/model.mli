(** Per-branch neural predictor — the BranchNet baseline's model
    (Zangeneh et al., MICRO 2020), reproduced as a small multi-layer
    perceptron.

    The original uses per-branch convolutional networks over one-hot
    (PC, direction) history; the surrogate consumes the raw directions of
    the recent history window as +-1 inputs (packed into feature bytes).
    What the reproduction preserves is BranchNet's defining properties
    (paper §II-D, VI): high accuracy on branches whose behaviour is a
    learnable function of recent raw history, and a per-branch metadata /
    training cost that bounds how many branches can be covered. *)

type t

val create :
  ?hidden:int -> ?n_lengths:int -> seed:int -> unit -> t
(** Fresh model; [n_lengths] is the number of 8-bit feature bytes
    (defaults: 8 hidden units, 8 feature bytes). *)

val n_inputs : t -> int

val weights : t -> float array array * float array
(** Copies of the hidden layer's rows ([n_inputs] weights, then the
    bias) and of the output row (one weight per hidden unit, then the
    bias). *)

val forward : t -> features:int array -> float
(** Raw output (pre-threshold); [features] holds the packed input bytes,
    of which the first [n_lengths] are read.
    @raise Invalid_argument ["Model.forward"] if [features] is shorter. *)

val predict : t -> features:int array -> bool
(** [forward >= 0]. *)

type scratch
(** Reusable buffers for one sample's decoded inputs and hidden
    activations; one scratch serves models of any shape. *)

val scratch : unit -> scratch

val predict_with : scratch -> t -> features:int array -> bool
(** {!predict} decoding into [scratch]: allocates nothing once the
    scratch has grown to the model's shape. *)

val train_sgd :
  t -> xs:int array array -> ys:bool array -> epochs:int -> lr:float -> unit
(** Mini-batch-free SGD over the sample set.  Each sample is decoded to
    +-1 inputs once per call.
    @raise Invalid_argument ["Model.train_sgd"] if [xs] and [ys] differ
    in length or a sample has fewer than [n_lengths] bytes. *)

val storage_bytes : t -> int
(** Metadata footprint of the deployed (8-bit quantized) model. *)
