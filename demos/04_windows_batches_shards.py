#!/usr/bin/env python3
# Sequence machinery: one-step delay for pairwise computations, batched
# function application, sliding windows over tensor fields, and residue-class
# sharding for cluster fan-out.

import fieldstream as fs

# delay: each record sees the previous record's value (first one sees itself),
# which is how pairwise features like frame-to-frame motion get computed.
motion = (
    fs.Datastream([10.0, 12.0, 11.0, 15.0])
    | fs.as_field("frame")
    | fs.delay("frame", "prev")
    | fs.apply(["frame", "prev"], "diff", lambda vs: vs[0] - vs[1])
    | fs.select_field("diff")
    | fs.as_list
)
print("frame deltas:", motion)

# apply_batch: group values, call once per group, un-group the results.
# Useful when the function is much cheaper on a batch (model inference).
calls = []


def batched_model(values):
    calls.append(len(values))
    return [v * 100 for v in values]


scored = (
    fs.Datastream(range(7))
    | fs.as_field("x")
    | fs.apply_batch("x", "score", batched_model, batch_size=3)
    | fs.select_field("score")
    | fs.as_list
)
print("scores:", scored, " model called with group sizes:", calls)

# sliding_window: stack the last k values of chosen fields into one tensor
# per output record. Scalars count as rank-0 tensors.
windows = (
    fs.Datastream([1, 2, 3, 4, 5])
    | fs.as_field("x")
    | fs.sliding_window(["x"], 3)
    | fs.select_field("x")
    | fs.as_list
)
for t in windows:
    print("window:", list(t.data))

# shard(k, n): keep every n-th element with remainder k. Worker k of n runs
# the same script; together the workers cover the stream exactly once.
for k in range(3):
    kept = (
        fs.Datastream(range(10))
        | fs.as_field("i")
        | fs.shard(k, 3)
        | fs.select_field("i")
        | fs.as_list
    )
    print(f"worker {k} of 3 sees:", kept)
