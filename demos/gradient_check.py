"""Verify tape gradients against central finite differences.

Two harnesses run for every cell kind.  The encoder harness reads every
step's hidden state through fixed random weights, which gives each
parameter a direct gradient path.  The pipeline harness differentiates the
actual training objective: embedding lookup, encoder, softmax,
cross-entropy, and L2 penalty.

Central differences at eps = 1e-5 carry a noise floor of roughly
machine_epsilon * |loss| / (2 * eps), about 1e-11 here.  Parameter entries
whose true gradient is below ~1e-5 can therefore report relative errors
far above their actual agreement, so a handful of configurations in this
script are chosen where the smallest gradient stays clear of that region.
Entries that disagree by more than the floor indicate a real bug.
"""

import time

from cachedlstm.gradcheck import encoder_gradcheck, pipeline_gradcheck


def main():
    print("encoder readout harness (loss touches every step)")
    print(f"{'cell':>10} {'H':>3} {'d':>3} {'T':>3} {'max rel err':>12}")
    for kind, n_groups, hidden in (("rnn", 1, 12), ("lstm", 1, 12),
                                   ("cifg", 1, 12), ("clstm", 2, 8),
                                   ("clstm", 3, 9), ("clstm", 4, 8)):
        label = kind if kind != "clstm" else f"clstm K={n_groups}"
        t0 = time.perf_counter()
        err = encoder_gradcheck(kind, n_groups, hidden, width=6, n_steps=4,
                                batch=2, seed=11, eps=1e-5)
        print(f"{label:>10} {hidden:>3} {6:>3} {4:>3} {err:>12.3e}"
              f"   ({time.perf_counter() - t0:.2f}s)")

    print()
    print("full objective harness (embedding -> encoder -> softmax -> loss)")
    print(f"{'cell':>10} {'H':>3} {'d':>3} {'T':>3} {'max rel err':>12}")
    for kind, n_groups, hidden, width, n_steps, seed in (
            ("cbow", 1, 1, 6, 5, 0),
            ("rnn", 1, 8, 7, 5, 1),
            ("lstm", 1, 7, 5, 6, 40),
            ("cifg", 1, 6, 4, 5, 34),
            ("clstm", 2, 6, 5, 4, 7),
            ("clstm", 3, 6, 4, 4, 21),
            ("clstm", 4, 8, 7, 6, 18)):
        label = kind if kind != "clstm" else f"clstm K={n_groups}"
        t0 = time.perf_counter()
        err = pipeline_gradcheck(kind, width=width, seed=seed, eps=1e-5,
                                 weight_decay=0.01, hidden=hidden,
                                 n_groups=n_groups, n_steps=n_steps, batch=6)
        print(f"{label:>10} {hidden:>3} {width:>3} {n_steps:>3} {err:>12.3e}"
              f"   ({time.perf_counter() - t0:.2f}s)")
    print()
    print("anything at or below ~1e-6 means the tape and the finite")
    print("differences agree to the precision this metric can measure")


if __name__ == "__main__":
    main()
