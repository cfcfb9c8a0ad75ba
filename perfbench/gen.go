package main

import (
	"fmt"
	"math/rand/v2"
)

// GenProgram is one generated mini-C program together with the result
// the generator computed for it: main's return value and out() stream.
// Every program terminates after hundreds to a few thousand VM steps and
// keeps every intermediate value non-negative and far from overflow, so
// Go arithmetic computes exactly what the program does. Each shape's size
// varies little with the seed, so runs on different seeds do comparable
// work.
type GenProgram struct {
	Name   string
	Source string
	Input  []int64
	Ret    int64
	Output []int64
}

// template builds one program from r; salt is folded into the return
// value, so distinct salts give distinct sources (and distinct
// compile-cache keys) for otherwise identical shapes.
type template func(r *rand.Rand, salt int64) GenProgram

// templates are the shapes the generator draws from: loop arithmetic on
// registers, array passes through shadow memory, recursion (procedure
// constructs), and nested loops with data-dependent branches.
var templates = []template{genLCG, genPrefix, genFib, genCollatz, genMatmul, genSort}

func withSalt(r, salt int64) int64 { return (r + salt) % 256 }

func genLCG(r *rand.Rand, salt int64) GenProgram {
	n, s := int64(90+r.IntN(20)), int64(1+r.IntN(1000))
	a, c, m := int64(3+r.IntN(500)), int64(1+r.IntN(1000)), int64(1009+r.IntN(90000))
	src := fmt.Sprintf(`int SALT = %d;

int main() {
	int n = in(0);
	int s = in(1);
	int odd = 0;
	for (int i = 0; i < n; i++) {
		s = (s * %d + %d + i) %% %d;
		if (s %% 2 == 1) {
			odd++;
		}
	}
	out(s);
	out(odd);
	return (odd + SALT) %% 256;
}
`, salt, a, c, m)
	in := []int64{n, s}
	odd := int64(0)
	for i := int64(0); i < n; i++ {
		s = (s*a + c + i) % m
		if s%2 == 1 {
			odd++
		}
	}
	return GenProgram{Name: "lcg.mc", Source: src, Input: in, Ret: withSalt(odd, salt), Output: []int64{s, odd}}
}

func genPrefix(r *rand.Rand, salt int64) GenProgram {
	n, k, b := 64+r.IntN(16), int64(1+r.IntN(1000)), int64(r.IntN(1000))
	m, stride := int64(101+r.IntN(10000)), 1+r.IntN(4)
	src := fmt.Sprintf(`int SALT = %d;
int a[%d];

int main() {
	for (int i = 0; i < %d; i++) {
		a[i] = (i * %d + %d) %% %d;
	}
	for (int i = 1; i < %d; i++) {
		a[i] = (a[i] + a[i - 1]) %% 1000003;
	}
	int x = 0;
	for (int i = 0; i < %d; i += %d) {
		x = x ^ a[i];
	}
	out(x);
	out(a[%d]);
	return (x + SALT) %% 256;
}
`, salt, n, n, k, b, m, n, n, stride, n-1)
	a := make([]int64, n)
	for i := range a {
		a[i] = (int64(i)*k + b) % m
	}
	for i := 1; i < n; i++ {
		a[i] = (a[i] + a[i-1]) % 1000003
	}
	x := int64(0)
	for i := 0; i < n; i += stride {
		x ^= a[i]
	}
	return GenProgram{Name: "prefix.mc", Source: src, Ret: withSalt(x, salt), Output: []int64{x, a[n-1]}}
}

func genFib(r *rand.Rand, salt int64) GenProgram {
	n, k, m := int64(11+r.IntN(2)), int64(1+r.IntN(100)), int64(97+r.IntN(1000))
	src := fmt.Sprintf(`int SALT = %d;

int fib(int n) {
	if (n < 2) {
		return n;
	}
	return fib(n - 1) + fib(n - 2);
}

int main() {
	int f = (fib(in(0)) * %d) %% %d;
	out(f);
	return (f + SALT) %% 256;
}
`, salt, k, m)
	var fib func(int64) int64
	fib = func(n int64) int64 {
		if n < 2 {
			return n
		}
		return fib(n-1) + fib(n-2)
	}
	f := fib(n) * k % m
	return GenProgram{Name: "fib.mc", Source: src, Input: []int64{n}, Ret: withSalt(f, salt), Output: []int64{f}}
}

func genCollatz(r *rand.Rand, salt int64) GenProgram {
	lo := int64(1 + r.IntN(30))
	hi := lo + int64(10+r.IntN(3))
	src := fmt.Sprintf(`int SALT = %d;

int main() {
	int best = 0;
	int bestlen = -1;
	int total = 0;
	for (int s = %d; s < %d; s++) {
		int x = s;
		int len = 0;
		while (x != 1) {
			if (x %% 2 == 0) {
				x = x / 2;
			} else {
				x = 3 * x + 1;
			}
			len++;
		}
		total += len;
		if (len > bestlen) {
			best = s;
			bestlen = len;
		}
	}
	out(best);
	out(total);
	return (best + SALT) %% 256;
}
`, salt, lo, hi)
	best, bestlen, total := int64(0), int64(-1), int64(0)
	for s := lo; s < hi; s++ {
		x, n := s, int64(0)
		for x != 1 {
			if x%2 == 0 {
				x /= 2
			} else {
				x = 3*x + 1
			}
			n++
		}
		total += n
		if n > bestlen {
			best, bestlen = s, n
		}
	}
	return GenProgram{Name: "collatz.mc", Source: src, Ret: withSalt(best, salt), Output: []int64{best, total}}
}

func genMatmul(r *rand.Rand, salt int64) GenProgram {
	n := 5 + r.IntN(2)
	k1, k2, m := int64(1+r.IntN(50)), int64(1+r.IntN(50)), int64(11+r.IntN(90))
	src := fmt.Sprintf(`int SALT = %d;
int a[36];
int b[36];
int c[36];

int main() {
	int n = %d;
	for (int i = 0; i < n * n; i++) {
		a[i] = (i * %d) %% %d;
		b[i] = (i * %d + 1) %% %d;
	}
	for (int i = 0; i < n; i++) {
		for (int j = 0; j < n; j++) {
			int s = 0;
			for (int k = 0; k < n; k++) {
				s += a[i * n + k] * b[k * n + j];
			}
			c[i * n + j] = s;
		}
	}
	int tr = 0;
	for (int i = 0; i < n; i++) {
		tr += c[i * n + i];
	}
	out(tr);
	out(c[n * n - 1]);
	return (tr + SALT) %% 256;
}
`, salt, n, k1, m, k2, m)
	a, b, c := make([]int64, n*n), make([]int64, n*n), make([]int64, n*n)
	for i := range a {
		a[i] = int64(i) * k1 % m
		b[i] = (int64(i)*k2 + 1) % m
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := int64(0)
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
	tr := int64(0)
	for i := 0; i < n; i++ {
		tr += c[i*n+i]
	}
	return GenProgram{Name: "matmul.mc", Source: src, Ret: withSalt(tr, salt), Output: []int64{tr, c[n*n-1]}}
}

func genSort(r *rand.Rand, salt int64) GenProgram {
	n, seed := 12+r.IntN(3), int64(1+r.IntN(10000))
	src := fmt.Sprintf(`int SALT = %d;
int v[32];

int main() {
	int n = %d;
	int s = %d;
	for (int i = 0; i < n; i++) {
		s = (s * 1103 + 12345) %% 65536;
		v[i] = s %% 1000;
	}
	for (int i = 0; i < n; i++) {
		for (int j = 0; j + 1 < n - i; j++) {
			if (v[j] > v[j + 1]) {
				int t = v[j];
				v[j] = v[j + 1];
				v[j + 1] = t;
			}
		}
	}
	out(v[0]);
	out(v[n / 2]);
	out(v[n - 1]);
	return (v[n / 2] + SALT) %% 256;
}
`, salt, n, seed)
	v := make([]int64, n)
	s := seed
	for i := range v {
		s = (s*1103 + 12345) % 65536
		v[i] = s % 1000
	}
	for i := 0; i < n; i++ {
		for j := 0; j+1 < n-i; j++ {
			if v[j] > v[j+1] {
				v[j], v[j+1] = v[j+1], v[j]
			}
		}
	}
	return GenProgram{Name: "sort.mc", Source: src, Ret: withSalt(v[n/2], salt),
		Output: []int64{v[0], v[n/2], v[n-1]}}
}

// Generator makes the seeded inputs of the small-sync workload.
type Generator struct {
	r        *rand.Rand
	coldSalt int64
}

// NewGenerator returns a generator whose whole output is a function of
// seed.
func NewGenerator(seed uint64) *Generator {
	return &Generator{r: rand.New(rand.NewPCG(seed, 0x5eed)), coldSalt: 1 << 20}
}

// HotSet returns n programs cycling through every template, with salts
// below 1<<20 so they can never collide with a cold program.
func (g *Generator) HotSet(n int) []GenProgram {
	out := make([]GenProgram, n)
	for i := range out {
		out[i] = templates[i%len(templates)](g.r, int64(g.r.IntN(1<<20)))
	}
	return out
}

// Cold returns a program whose source has never been generated before
// in this run: its salt is fresh, so it misses the compile cache.
func (g *Generator) Cold() GenProgram {
	g.coldSalt++
	return templates[g.r.IntN(len(templates))](g.r, g.coldSalt)
}

// Shuffle permutes xs with the generator's stream.
func Shuffle[T any](g *Generator, xs []T) {
	g.r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
