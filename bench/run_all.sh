#!/bin/sh
# Run every workload, timed and then traced, with one seed.
#   sh bench/run_all.sh [seed] [seconds]     (defaults: 1 and 15)
# Run from the repository root; results also land in bench/out/.
seed=${1:-1}
seconds=${2:-15}
for w in sim_deep sim_forky sim_batch econ_sweep; do
    for t in 0 1; do
        python3 bench/run.py --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace "$t" || exit 1
    done
done
