"""MinHash collision probability versus exact Jaccard similarity.

For term-set pairs of known overlap, the fraction of hash functions whose
minima agree estimates the Jaccard similarity; with the default 10 hashes
per passage, the chance that two passages collide at least once is
1 - (1 - J)^10, which is what the ``minhash`` reference retrieval mode
banks on.

    python demos/minhash_estimator.py
"""

from textreuse import MinHasher

hasher = MinHasher(num_hashes=5000, seed=11)
set_size = 50

print(f"{'shared':>6} {'Jaccard':>8} {'estimate':>9} {'|err|':>7} {'P(collide, m=10)':>17}")
for shared in (2, 5, 10, 17, 25, 35, 45, 50):
    common = [f"common{i}" for i in range(shared)]
    set_a = frozenset(common + [f"left{i}" for i in range(set_size - shared)])
    set_b = frozenset(common + [f"right{i}" for i in range(set_size - shared)])
    jaccard = len(set_a & set_b) / len(set_a | set_b)
    agreement = float((hasher.values(set_a) == hasher.values(set_b)).mean())
    collide_10 = 1 - (1 - jaccard) ** 10
    print(f"{shared:>6} {jaccard:>8.4f} {agreement:>9.4f} "
          f"{abs(agreement - jaccard):>7.4f} {collide_10:>17.4f}")

print()
print("note: at J = 0.1 (a 9-of-50-word overlap) a single passage pair")
print("collides with probability ~0.65, not 1.0 - the guaranteed variant of")
print("that criterion is retrieve_candidates_exact, which counts distinct")
print("shared terms directly.")
