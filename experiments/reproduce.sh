#!/usr/bin/env bash
# Desk-scale experiment recipes. Each block is independent; together they
# produce the standard comparisons:
#   1. base vs SFT vs EKSFT: response entropy, parameter drift, pass@k
#   2. RL from SFT init vs from EKSFT init: reward curves
#   3. mask overlap (IoU) statistics of the two selection criteria
#   4. masking-ratio sweep
#   5. random-mask baseline vs EKSFT
set -euo pipefail

SEED="${SEED:-0}"
OUT="${OUT:-experiments/out}"
DATA="$OUT/data"
mkdir -p "$OUT"

MODEL=(--vocab-size 32 --d-model 64 --n-layers 2 --n-heads 2 --context-len 64)
PRETRAIN=(--epochs 12 --batch-size 16 --lr 3e-3)
SFT=(--epochs 96 --batch-size 8 --lr 5e-4)

eksft gen-data --out "$DATA" --seed $((100 + SEED)) --force

eksft pretrain --data "$DATA/pretrain.jsonl" --out "$OUT/base" \
    "${MODEL[@]}" "${PRETRAIN[@]}" --seed "$SEED" --force

BASE="$OUT/base/checkpoints/final"

# --- 1. supervised-stage comparison -----------------------------------------
# Each method is given only the hyper-parameters it reads (objective.METHODS);
# train-sft refuses the others.
declare -A READS=(
    [sft]=""
    [eksft]="--rho 0.2 --lambda-h 0.05 --lambda-kl 0.05"
    [random_mask]="--drop-fraction 0.10 --lambda-h 0.05 --lambda-kl 0.05"
    [global_reg]="--lambda-h 0.05 --lambda-kl 0.05"
    [dft]=""
)
for METHOD in sft eksft random_mask global_reg dft; do
    # shellcheck disable=SC2086  # READS entries are word-split into flags
    eksft train-sft --method "$METHOD" --data "$DATA/sft.jsonl" \
        --init "$BASE" --out "$OUT/$METHOD" "${SFT[@]}" ${READS[$METHOD]} \
        --seed "$SEED" --force
    eksft eval --ckpt "$OUT/$METHOD/checkpoints/final" --data "$DATA/eval.jsonl" \
        --n 32 --ks 1,4,8,16,32 --out "$OUT/$METHOD/reports" --label "$METHOD"
    eksft analyze drift --before "$BASE" --after "$OUT/$METHOD/checkpoints/final" \
        --out "$OUT/$METHOD/reports"
done
eksft eval --ckpt "$BASE" --data "$DATA/eval.jsonl" \
    --n 32 --ks 1,4,8,16,32 --out "$OUT/base/reports" --label base

# --- 2. RL stage from each supervised init ----------------------------------
for METHOD in sft eksft; do
    eksft train-rl --init "$OUT/$METHOD/checkpoints/final" \
        --prompts "$DATA/rl_prompts.jsonl" --out "$OUT/rl_$METHOD" \
        --steps 100 --group-size 16 --prompts-per-step 4 \
        --max-gen-len 20 --lr 3e-5 --seed "$SEED" --force
    eksft analyze plots --run "$OUT/rl_$METHOD"
done

# --- 3. overlap of the two selection criteria -------------------------------
eksft analyze iou --dump "$OUT/eksft/mask_dump.jsonl" --out "$OUT/eksft/reports"

# --- 4. masking-ratio sweep --------------------------------------------------
eksft analyze sweep --data "$DATA/sft.jsonl" --eval-data "$DATA/eval.jsonl" \
    --init "$BASE" --out "$OUT/sweep" --rhos 0.0,0.1,0.2,0.3,0.4 \
    --epochs 24 --batch-size 8 --lr 5e-4 --seed "$SEED" --n 32

# --- 5. charts ----------------------------------------------------------------
for METHOD in sft eksft random_mask global_reg dft; do
    eksft analyze plots --run "$OUT/$METHOD"
done

echo "done; outputs under $OUT"
