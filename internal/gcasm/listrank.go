package gcasm

// ListRankSource is Wyllie's list-ranking algorithm — the canonical
// pointer-jumping PRAM algorithm — as a one-generation rule-language
// program. Each cell packs (next, rank) in two 21-bit lanes; ⌈log₂ n⌉
// sub-generations of
//
//	rank ← rank + rank(next);  next ← next(next)
//
// leave every cell holding its distance to the end of its list. The tail
// is the fixed point next = index.
const ListRankSource = `
# Wyllie list ranking. Cell word: next + rank * 2097152.
gen rank times log:
    p = d % 2097152
    d <- if d % 2097152 == index then d else dstar % 2097152 + (d / 2097152 + dstar / 2097152) * 2097152

repeat 1 {
    rank
}
`
