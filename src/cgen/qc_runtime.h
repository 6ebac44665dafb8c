// Runtime library for query programs generated by the C backend (cgen).
//
// This is the generated code's whole world: binary column loading, the
// *generic* chained hash table and growable vector (the GLib stand-ins used
// whenever the stack did not specialize a data structure — complete with
// caller-supplied hash/equality function pointers and one malloc per node),
// bump-pointer memory pools (the target of allocation hoisting), and result
// emission. The scalar ops — hashes, string predicates, LIKE, SUBSTR's
// bounds — are common/scalar_ops.h's, the definitions the engines run too.
//
// The header is C-style C++ (the C++ features generated code uses are
// lambdas for sort comparators and the qc:: scalar ops); generated
// translation units compile with `cc -O2 -x c++`.
#ifndef QC_CGEN_QC_RUNTIME_H_
#define QC_CGEN_QC_RUNTIME_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "../common/scalar_ops.h"

// ---------------------------------------------------------------------------
// slots
// ---------------------------------------------------------------------------

union qc_slot {
  int64_t i;
  double d;
  const char* s;
  void* p;
};

static inline qc_slot qc_si(int64_t v) { qc_slot s; s.i = v; return s; }
static inline qc_slot qc_sd(double v) { qc_slot s; s.d = v; return s; }
static inline qc_slot qc_ss(const char* v) { qc_slot s; s.s = v; return s; }
static inline qc_slot qc_sp(void* v) { qc_slot s; s.p = v; return s; }

// ---------------------------------------------------------------------------
// allocation accounting (Figure 8)
// ---------------------------------------------------------------------------

static size_t qc_heap_bytes = 0;
static size_t qc_heap_allocs = 0;
static size_t qc_pool_bytes = 0;

static inline void* qc_malloc(size_t n) {
  qc_heap_bytes += n;
  ++qc_heap_allocs;
  return malloc(n);
}

// ---------------------------------------------------------------------------
// memory pools (allocation hoisting target)
// ---------------------------------------------------------------------------

struct qc_pool {
  char* block;
  size_t used;
  size_t cap;
  struct qc_pool* prev;
};

static inline qc_pool* qc_pool_new(size_t bytes_hint) {
  qc_pool* p = (qc_pool*)malloc(sizeof(qc_pool));
  p->cap = bytes_hint < (1u << 16) ? (1u << 16) : bytes_hint;
  p->block = (char*)malloc(p->cap);
  p->used = 0;
  p->prev = NULL;
  qc_pool_bytes += p->cap;
  return p;
}

static inline void* qc_pool_alloc(qc_pool** pp, size_t n) {
  n = (n + 15u) & ~(size_t)15u;
  qc_pool* p = *pp;
  if (p->used + n > p->cap) {
    qc_pool* np = qc_pool_new(p->cap * 2 > n ? p->cap * 2 : n);
    np->prev = p;
    *pp = np;
    p = np;
  }
  void* r = p->block + p->used;
  p->used += n;
  return r;
}

// Pool sized from a worst-case cardinality estimate, capped so aggressive
// estimates do not balloon resident memory (pools grow on demand anyway).
static inline qc_pool* qc_pool_new_est(size_t bytes) {
  if (bytes > (size_t)(64u << 20)) bytes = (size_t)(64u << 20);
  return qc_pool_new(bytes);
}

static inline void* qc_calloc(size_t n, size_t sz) {
  qc_heap_bytes += n * sz;
  ++qc_heap_allocs;
  return calloc(n, sz);
}

// ---------------------------------------------------------------------------
// growable vector of slots (generic List)
// ---------------------------------------------------------------------------

struct qc_vec {
  qc_slot* data;
  int64_t len;
  int64_t cap;
};

static inline qc_vec* qc_vec_new(void) {
  qc_vec* v = (qc_vec*)qc_malloc(sizeof(qc_vec));
  v->data = NULL;
  v->len = 0;
  v->cap = 0;
  return v;
}

static inline void qc_vec_push(qc_vec* v, qc_slot x) {
  if (v->len == v->cap) {
    v->cap = v->cap == 0 ? 4 : v->cap * 2;
    v->data = (qc_slot*)realloc(v->data, v->cap * sizeof(qc_slot));
    qc_heap_bytes += v->cap * sizeof(qc_slot);
  }
  v->data[v->len++] = x;
}

// ---------------------------------------------------------------------------
// generic chained hash table (the GLib analogue): caller-supplied hash and
// equality function pointers, one heap node per entry.
// ---------------------------------------------------------------------------

typedef uint64_t (*qc_hash_fn)(qc_slot);
typedef int (*qc_eq_fn)(qc_slot, qc_slot);

struct qc_map_node {
  qc_slot key;
  qc_slot val;
  struct qc_map_node* next;
  struct qc_map_node* order;  // insertion order for deterministic iteration
};

struct qc_map {
  qc_map_node** buckets;
  int64_t nbuckets;
  int64_t size;
  qc_map_node* head;
  qc_map_node* tail;
  qc_hash_fn hash;
  qc_eq_fn eq;
};

static inline qc_map* qc_map_new(qc_hash_fn h, qc_eq_fn e) {
  qc_map* m = (qc_map*)qc_malloc(sizeof(qc_map));
  m->nbuckets = 16;
  m->buckets = (qc_map_node**)calloc(m->nbuckets, sizeof(qc_map_node*));
  m->size = 0;
  m->head = m->tail = NULL;
  m->hash = h;
  m->eq = e;
  return m;
}

static inline qc_map_node* qc_map_find(qc_map* m, qc_slot key) {
  qc_map_node* n = m->buckets[m->hash(key) & (m->nbuckets - 1)];
  while (n) {
    if (m->eq(n->key, key)) return n;
    n = n->next;
  }
  return NULL;
}

static inline void qc_map_rehash(qc_map* m) {
  int64_t nb = m->nbuckets * 2;
  qc_map_node** b = (qc_map_node**)calloc(nb, sizeof(qc_map_node*));
  for (qc_map_node* n = m->head; n; n = n->order) {
    uint64_t i = m->hash(n->key) & (nb - 1);
    n->next = b[i];
    b[i] = n;
  }
  free(m->buckets);
  m->buckets = b;
  m->nbuckets = nb;
}

static inline qc_map_node* qc_map_insert(qc_map* m, qc_slot key, qc_slot val) {
  if (m->size >= m->nbuckets) qc_map_rehash(m);
  uint64_t i = m->hash(key) & (m->nbuckets - 1);
  qc_map_node* n = (qc_map_node*)qc_malloc(sizeof(qc_map_node));
  n->key = key;
  n->val = val;
  n->next = m->buckets[i];
  n->order = NULL;
  m->buckets[i] = n;
  if (m->tail) {
    m->tail->order = n;
  } else {
    m->head = n;
  }
  m->tail = n;
  ++m->size;
  return n;
}

// MultiMap on top of qc_map: key -> qc_vec of values.
static inline void qc_mmap_add(qc_map* m, qc_slot key, qc_slot val) {
  qc_map_node* n = qc_map_find(m, key);
  qc_vec* v;
  if (n == NULL) {
    v = qc_vec_new();
    qc_map_insert(m, key, qc_sp(v));
  } else {
    v = (qc_vec*)n->val.p;
  }
  qc_vec_push(v, val);
}

static inline qc_vec* qc_mmap_get(qc_map* m, qc_slot key) {
  qc_map_node* n = qc_map_find(m, key);
  return n ? (qc_vec*)n->val.p : NULL;
}

// ---------------------------------------------------------------------------
// the generic map's adapters for i64 keys, and SUBSTR into the string pool
// ---------------------------------------------------------------------------

static inline uint64_t qc_hash_i64_slot(qc_slot s) {
  return qc::HashMix((uint64_t)s.i);
}

static inline int qc_eq_i64_slot(qc_slot a, qc_slot b) { return a.i == b.i; }

static inline const char* qc_substr(qc_pool** pool, const char* s, int start,
                                    int len) {
  size_t from = 0;
  size_t n = qc::SubstrClamp(s, start, len, &from);
  char* r = (char*)qc_pool_alloc(pool, n + 1);
  memcpy(r, s + from, n);
  r[n] = 0;
  return r;
}

// ---------------------------------------------------------------------------
// column loading (binary files exported by storage::Database::ExportBinary)
// ---------------------------------------------------------------------------

static inline int64_t qc_load_rowcount(const char* dir, const char* table) {
  char path[1024];
  snprintf(path, sizeof(path), "%s/%s.meta", dir, table);
  FILE* f = fopen(path, "r");
  if (!f) {
    fprintf(stderr, "cannot open %s\n", path);
    exit(1);
  }
  long long n = 0;
  if (fscanf(f, "%lld", &n) != 1) exit(1);
  fclose(f);
  return (int64_t)n;
}

static inline void* qc_load_blob(const char* path, size_t* out_bytes) {
  FILE* f = fopen(path, "rb");
  if (!f) {
    fprintf(stderr, "cannot open %s\n", path);
    exit(1);
  }
  fseek(f, 0, SEEK_END);
  long sz = ftell(f);
  fseek(f, 0, SEEK_SET);
  void* buf = malloc(sz);
  if (fread(buf, 1, sz, f) != (size_t)sz) exit(1);
  fclose(f);
  if (out_bytes) *out_bytes = (size_t)sz;
  return buf;
}

static inline int64_t* qc_load_i64(const char* dir, const char* table,
                                   const char* col) {
  char path[1024];
  snprintf(path, sizeof(path), "%s/%s.%s.bin", dir, table, col);
  return (int64_t*)qc_load_blob(path, NULL);
}

static inline double* qc_load_f64(const char* dir, const char* table,
                                  const char* col) {
  char path[1024];
  snprintf(path, sizeof(path), "%s/%s.%s.bin", dir, table, col);
  return (double*)qc_load_blob(path, NULL);
}

static inline int32_t* qc_load_i32(const char* dir, const char* table,
                                   const char* col) {
  char path[1024];
  snprintf(path, sizeof(path), "%s/%s.%s.bin", dir, table, col);
  return (int32_t*)qc_load_blob(path, NULL);
}

// Length-prefixed strings -> array of char* (rows) into one arena.
static inline const char** qc_load_str(const char* dir, const char* table,
                                       const char* col, int64_t rows) {
  char path[1024];
  snprintf(path, sizeof(path), "%s/%s.%s.bin", dir, table, col);
  size_t bytes = 0;
  char* blob = (char*)qc_load_blob(path, &bytes);
  const char** out = (const char**)malloc(rows * sizeof(char*));
  // Rewrite in place: move each string down one byte over its length prefix
  // would corrupt; instead allocate a second arena.
  char* arena = (char*)malloc(bytes + rows);
  char* w = arena;
  size_t off = 0;
  for (int64_t r = 0; r < rows; ++r) {
    uint32_t len;
    memcpy(&len, blob + off, 4);
    off += 4;
    memcpy(w, blob + off, len);
    w[len] = 0;
    out[r] = w;
    w += len + 1;
    off += len;
  }
  free(blob);
  return out;
}

// ---------------------------------------------------------------------------
// result emission
// ---------------------------------------------------------------------------

struct qc_result {
  qc_vec rows;  // flat: ncols slots per row
  int ncols;
};

static inline void qc_emit(qc_result* r, const qc_slot* row, int n) {
  for (int i = 0; i < n; ++i) qc_vec_push(&r->rows, row[i]);
  r->ncols = n;
}

#endif  // QC_CGEN_QC_RUNTIME_H_
