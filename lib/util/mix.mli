(** Allocation-free hashing of whole states.

    The exhaustive checker deduplicates states through a hash table, so a
    state hash must look at every word of the state: a hash that stops
    early (as [Hashtbl.hash] does, after ten meaningful values) sends
    most reachable states to a few buckets and leaves the work to a
    linear scan with [equal]. A state hash here starts from {!seed},
    folds every compared field in with {!int} and {!ints}, and ends with
    {!finish}. Nothing is allocated along the way. *)

val seed : int
(** The accumulator a hash starts from. *)

val int : int -> int -> int
(** [int h x] folds the word [x] into the accumulator [h]. Two
    accumulators that differ, fed the same word, stay different. *)

val ints : int -> int array -> int
(** Fold every element of the array in order, then its length. *)

val words16 : int -> Bytes.t -> int -> int -> int
(** [words16 h b off n] folds the [n] unsigned 16-bit words that start at
    word [off] of [b] (2 bytes a word, native byte order), then [n]: the
    same value as {!ints} on an array of those words. Raises
    [Invalid_argument] when the range is outside [b]. *)

val finish : int -> int
(** Spread the accumulator's high bits over the low ones (which hash
    tables index by) and make it non-negative. *)
