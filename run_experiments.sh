#!/bin/bash
# Regenerates every table and figure of the paper into results/.
# Usage: ./run_experiments.sh [scale] [seeds]
# The default scale, 1, is the one the committed results/ files are at: a
# bare run reproduces them byte for byte instead of overwriting them.
set -u
SCALE=${1:-1}
SEEDS=${2:-1}
BIN=target/release
cd "$(dirname "$0")"
echo "== table2 =="   && $BIN/table2                 > results/table2.txt
echo "== table1 =="   && $BIN/table1 $SCALE          > results/table1.txt 2>results/table1.log
echo "== fig1 =="     && $BIN/fig1 $SCALE $SEEDS     > results/fig1.txt   2>results/fig1.log
echo "== fig3 =="     && $BIN/fig3 both $SCALE $SEEDS > results/fig3.txt  2>results/fig3.log
echo "== fig4 =="     && $BIN/fig4 $SCALE $SEEDS     > results/fig4.txt   2>results/fig4.log
echo "== fig6 =="     && $BIN/fig6 "" $SCALE         > results/fig6.txt   2>results/fig6.log
echo "== fig7 =="     && $BIN/fig7 10 $SCALE 1 250   > results/fig7.txt   2>results/fig7.log
echo "== ablation ==" && $BIN/ablation $SCALE        > results/ablation.txt 2>results/ablation.log
echo "== percore =="  && $BIN/percore $SCALE         > results/percore.txt 2>results/percore.log
# The committed fault-sweep and fleet evidence have fixed configs,
# whatever the scale and seeds above (EXPERIMENTS.md's fault sweep at
# scale 0.1, README's fleet quickstart, EXPERIMENTS.md's thermal matrix).
echo "== faults =="   && $BIN/faults 0.1 1           > results/faults.txt  2>results/faults.log
echo "== fleet =="    && $BIN/fleet 8 120 0.05 1 --shards 2 --chaos 0.5 --chaos-seed 7 \
                             --policy depburst --out results/fleet.json > /dev/null
echo "== thermal =="  && $BIN/thermal 12 160 0.02 1 --out results/thermal.json > /dev/null
echo "all experiments complete"
