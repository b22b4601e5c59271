(** Runtime sanitizers for the domain-parallel kernels.

    Two independent checked modes, selected by the [SYMOR_SAN]
    environment variable (comma-separated, e.g. [SYMOR_SAN=race,fp])
    or programmatically via {!set}:

    {ul
    {- [race] — the {e checked pool}: every pooled batch registers a
       per-slot ownership map, loop bodies claim their slot before
       running, kernels note their output-slot writes, and the batch
       join verifies full coverage. Overlapping writers, writes to a
       slot owned by another domain, and unwritten slots all raise
       {!Violation}. The pool additionally perturbs the chunk claim
       order with a seeded permutation ([SYMOR_SAN_SEED]), so
       schedule-dependent bugs surface under adversarial interleavings
       while results must stay bitwise identical.}
    {- [fp] — the floating-point sanitizer: factorisation and solve
       kernels ([Sparse.Supernodal]'s real and split-complex kernels,
       [Sympvl.Factor]'s dense fallback) scan their outputs for NaN/Inf and
       monitor element growth. Violations are {e recorded} as
       {!findings} (and as [Obs] instants when tracing), never raised
       — a golden run under [SYMOR_SAN=fp] fails only if the harness
       checks {!findings} and finds any.}}

    {b Cost model.} With both modes off every probe is a single
    [Atomic.get] load and a branch — no allocation (gated by a unit
    test, the same idiom as the [Obs] disabled-probe gate) — and no
    checked code path is taken, so results are bitwise identical to a
    build without the sanitizer. With [race] on, the chunk schedule is
    perturbed but slot→index assignment is not, so pooled results
    remain bitwise identical to sequential runs; [fp] only reads
    kernel outputs. *)

exception Violation of string
(** A race-checker violation (codes SAN201–SAN203 in the message).
    Raised in the offending domain; the pool re-raises it in the
    caller after the batch has drained. *)

val race : unit -> bool
(** Whether the checked-pool race mode is on. *)

val fp : unit -> bool
(** Whether the floating-point sanitizer is on. *)

val enabled : unit -> bool
(** [race () || fp ()]. *)

val set : ?race:bool -> ?fp:bool -> unit -> unit
(** Override the [SYMOR_SAN] environment parse (test hook). Omitted
    flags are left unchanged. *)

type finding = {
  san_code : string;  (** Stable code, e.g. ["SAN101"]. *)
  san_message : string;
}

val findings : unit -> finding list
(** Recorded fp-sanitizer findings, oldest first (capped at 100). *)

val clear_findings : unit -> unit

(** Checked-pool primitives. [Parallel.Pool] drives the batch
    life-cycle; kernels only call {!Race.note_write}. *)
module Race : sig
  type batch
  (** Ownership map of one pooled batch: one slot per loop index. *)

  val batch_begin : n:int -> batch
  (** Open a checked batch of [n] slots and clear the kernel
      write registry. *)

  val claim : batch -> int -> unit
  (** [claim b i] marks slot [i] as owned by the calling domain.
      @raise Violation if the slot is already claimed (SAN201:
      overlapping writer — the same index ran twice). *)

  val batch_end : batch -> unit
  (** Verify every slot was claimed exactly once.
      @raise Violation on an unclaimed slot (SAN202: an output slot
      would be read without ever having been written). *)

  val batch_abort : batch -> unit
  (** Drop the batch without the coverage check (the batch died on an
      unrelated exception). *)

  val note_write : tag:string -> int -> unit
  (** [note_write ~tag i] records that the calling kernel wrote output
      slot [i] of the array identified by [tag] (e.g. ["ac.point"]).
      No-op outside an active checked batch, so sequential paths can
      call it unconditionally under a [race ()] guard.
      @raise Violation if the slot was already written this batch
      (SAN203: two writers for one output slot). *)

  val schedule_seed : unit -> int
  (** The adversarial-schedule seed: [SYMOR_SAN_SEED] if set to an
      integer, otherwise a fixed default. *)

  val permute : seed:int -> int -> int array
  (** [permute ~seed n] is a deterministic pseudo-random permutation
      of [0 .. n-1] (splitmix-style, independent of [Stdlib.Random]) —
      the chunk claim order of a perturbed batch. *)
end

(** Floating-point sanitizer probes. All are no-ops unless {!fp}. *)
module Fp : sig
  val check : name:string -> float -> unit
  (** Record SAN101 if the value is NaN or infinite. *)

  val check_array : name:string -> float array -> unit
  (** Record SAN101 (once) if any element is NaN or infinite. *)

  val growth_limit : float
  (** Element-growth ratio above which SAN102 is recorded ([1e10]). *)

  val growth : name:string -> scale:float -> lmax:float -> dmax:float -> unit
  (** [growth ~name ~scale ~lmax ~dmax] monitors a factorisation:
      [scale] is the input magnitude (max |A| diagonal), [lmax] the
      largest off-diagonal |L|, [dmax] the largest |D|. Records SAN102
      when [max lmax (dmax / scale)] exceeds {!growth_limit}, SAN101
      when any of them is non-finite. *)
end
