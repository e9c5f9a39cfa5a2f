(** Persisted operation records.

    Every record carries the {e resulting} item state, not the operation's
    arguments: an [Incr] is logged as the decimal string it produced, a
    [Touch] as the item with its new absolute expiry, and so on. Replay is
    therefore idempotent and convergent — applying a record twice, or
    applying one whose effect a concurrent snapshot already captured,
    reaches the same final store — which is what lets the snapshotter run
    as a plain relativistic reader with no coordination against writers.
    The originating command survives as {!op_tag}, for observability only.

    Expiry times are the absolute Unix seconds computed {e once} at the
    original operation (see [Store.absolute_exptime]); replay never
    re-derives them from a relative offset, so recovery is deterministic
    no matter when it runs. *)

type op_tag =
  | Tset
  | Tadd
  | Treplace
  | Tappend
  | Tprepend
  | Tcas
  | Tincr
  | Tdecr
  | Ttouch

type t =
  | Set of {
      op : op_tag;
      key : string;
      flags : int;
      exptime : float;  (** absolute Unix seconds; 0. = never *)
      cas : int;
      data : string;
    }
  | Delete of string
  | Flush_all

val encode : t -> string
(** Binary encoding (framed by {!Frame} when written to disk). *)

val decode : string -> (t, string) result
(** Inverse of {!encode}; [Error] describes the malformation. *)
