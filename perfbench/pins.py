"""Outputs pinned for the default seed, and the fuzz pool's known
verdicts.

A run with ``--seed DEFAULT_SEED`` must reproduce these exactly; any
other seed is checked against its own oracle and for equality across
the passes of the run.  A change to the program that moves one of
these on purpose must re-pin it and say why.
"""

#: the seed whose outputs are pinned below
DEFAULT_SEED = 1

#: workload -> signature of every pass under ``DEFAULT_SEED``: the
#: data-plane signature of a leg, the (program, verdict) digest of a
#: load round, and the good and bad rollout signatures of a cycle
SIGNATURES = {
    "xdp_filter":
        "7ca4b42ef8242b59d66ee6a547f02977bcb2b4919541fb0bf8e9a900350d4222",
    "xdp_firewall":
        "d2127eec276c794651d737150bf99b3beb11a886f31cac26cb2fa1315e8dc162",
    "prog_load":
        "e5e2891573e7ff3c27516b337c6110037f4528ac2e3f76b60a6490de3dc75c46",
    "fleet_rollout":
        "788e96c0d85a1c657016b364225530c17a537b548405c6e5a4d7bb2444a23826"
        ":bf50cf71420c7d908f7bdc4e764ccb92c93e58e4ea435ecee65bcb73b6d362ae",
}

#: digest of the deduplicated fuzz pool (see ``progload.fuzz_pool``)
FUZZ_POOL_DIGEST = \
    "21dcddcd8d0eae05a25c7a72aa214855b7a018a7c5ac8b419c5fa6a99e878d41"

#: hex bitmap: bit i set when pool program i must be accepted
#: (``progload.pool_verdicts``)
FUZZ_VERDICTS = (
    "42b8971d86200945404cbf1d3018e004"
    "0c4066820600492b0a0440124a1c0669")
