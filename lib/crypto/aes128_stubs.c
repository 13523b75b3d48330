/* Fixed-key AES-128 on AES-NI: the hardware core behind Aes128.

   Every entry point takes the 176 round-key bytes of an Aes128.schedule
   (the 44 FIPS-197 words, each stored big-endian) and works on Bytes
   planes in place or returns an unboxed int64; none allocates, so all
   are [@@noalloc] externals.

   The label hash H(x, tweak) = pi(x') ^ x' reads the label as two
   native-order int64s (hi at +0, lo at +8) and forms
   x' = (2 hi ^ tweak, 2 lo ^ ~tweak) in one vector. The AES block is
   hi' then lo', each big-endian, so one byte shuffle maps the plane
   layout to the block and back.

   The gate-shaped entries hash the four labels of a garbled half-gates
   AND, or the two of an evaluated one, with their AES pipelines
   interleaved: aesenc has a latency of several cycles and a throughput
   of about one per cycle, so independent blocks fill the pipeline.

   The file compiles on every platform. Off x86-64 (or under a compiler
   without target attributes) the probe reports no AES-NI and the entry
   points abort, since Aes128 never calls them then. The instructions
   are enabled per function, not by a global -maes, so one binary runs
   the T-table core on an x86-64 CPU without AES-NI. */

#include <stdint.h>
#include <stdlib.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

#define AESNI __attribute__((target("aes,ssse3")))
#define INLINE static inline __attribute__((always_inline)) AESNI

CAMLprim value secyan_aes_ni_available(value unit)
{
  unsigned int eax, ebx, ecx, edx;
  (void) unit;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return Val_false;
  return Val_bool((ecx & bit_AES) && (ecx & bit_SSSE3));
}

INLINE __m128i load(const unsigned char *p)
{
  return _mm_loadu_si128((const __m128i *) p);
}

INLINE void store(unsigned char *p, __m128i x)
{
  _mm_storeu_si128((__m128i *) p, x);
}

/* Byte-reverse each 64-bit lane: native-order int64s <-> AES block. */
INLINE __m128i bswap64x2(__m128i x)
{
  return _mm_shuffle_epi8(x, _mm_set_epi8(8, 9, 10, 11, 12, 13, 14, 15,
                                          0, 1, 2, 3, 4, 5, 6, 7));
}

/* x' = (2 hi ^ tweak, 2 lo ^ ~tweak) for the label x = (hi, lo). */
INLINE __m128i tweaked(__m128i x, int64_t tweak)
{
  return _mm_xor_si128(_mm_slli_epi64(x, 1), _mm_set_epi64x(~tweak, tweak));
}

/* x[i] <- pi(x[i]) ^ x[i] for i < n, the n pipelines interleaved round
   by round. [n] is a constant at every call; the loops must unroll so
   that the blocks stay in registers. */
INLINE void hash_blocks(const unsigned char *keys, __m128i *x, int n)
{
  __m128i b[4];
  __m128i rk = load(keys);
#pragma GCC unroll 4
  for (int i = 0; i < n; i++) b[i] = _mm_xor_si128(bswap64x2(x[i]), rk);
#pragma GCC unroll 9
  for (int r = 1; r < 10; r++) {
    rk = load(keys + 16 * r);
#pragma GCC unroll 4
    for (int i = 0; i < n; i++) b[i] = _mm_aesenc_si128(b[i], rk);
  }
  rk = load(keys + 160);
#pragma GCC unroll 4
  for (int i = 0; i < n; i++)
    x[i] = _mm_xor_si128(bswap64x2(_mm_aesenclast_si128(b[i], rk)), x[i]);
}

/* One block in FIPS byte order: dst.(0, 16) <- AES_k(src.(0, 16)). */
AESNI CAMLprim value secyan_aes_encrypt(value keys, value src, value dst)
{
  const unsigned char *k = Bytes_val(keys);
  __m128i b = _mm_xor_si128(load(Bytes_val(src)), load(k));
#pragma GCC unroll 9
  for (int r = 1; r < 10; r++) b = _mm_aesenc_si128(b, load(k + 16 * r));
  store(Bytes_val(dst), _mm_aesenclast_si128(b, load(k + 160)));
  return Val_unit;
}

/* One 64-bit half of H((hi, lo), tweak): the hi word when [half] is 0,
   the lo word otherwise. The pair entry point makes two such calls:
   they need no buffer (a Bytes one costs an allocating C call) and
   share no data, so the CPU overlaps their AES pipelines. The PSI's
   hashes (cuckoo bins, OPPRF outputs) need one half and make one. */
AESNI CAMLprim int64_t secyan_aes_hash_half(value keys, int64_t tweak, int64_t hi,
                                            int64_t lo, intnat half)
{
  __m128i x = tweaked(_mm_set_epi64x(lo, hi), tweak);
  hash_blocks(Bytes_val(keys), &x, 1);
  return _mm_cvtsi128_si64(half ? _mm_unpackhi_epi64(x, x) : x);
}

/* With A = src.(a, a+16), B = src.(b, b+16) and Delta at
   dst.(doff, doff+16), writes H(A, j), H(A ^ Delta, j), H(B, j+1) and
   H(B ^ Delta, j+1) at doff + 16, 32, 48 and 64 (j = tweak, as int64). */
AESNI CAMLprim value secyan_aes_garble_and(value keys, intnat tweak, value src, intnat a,
                                           intnat b, value dst, intnat doff)
{
  const unsigned char *s = Bytes_val(src);
  unsigned char *d = Bytes_val(dst) + doff;
  __m128i delta = load(d), la = load(s + a), lb = load(s + b);
  int64_t j = (int64_t) tweak;
  __m128i x[4] = { tweaked(la, j), tweaked(_mm_xor_si128(la, delta), j),
                   tweaked(lb, j + 1), tweaked(_mm_xor_si128(lb, delta), j + 1) };
  hash_blocks(Bytes_val(keys), x, 4);
  store(d + 16, x[0]);
  store(d + 32, x[1]);
  store(d + 48, x[2]);
  store(d + 64, x[3]);
  return Val_unit;
}

/* Writes H(A, j) at dst.(doff, doff+16) and H(B, j+1) at doff + 16. */
AESNI CAMLprim value secyan_aes_eval_and(value keys, intnat tweak, value src, intnat a,
                                         intnat b, value dst, intnat doff)
{
  const unsigned char *s = Bytes_val(src);
  unsigned char *d = Bytes_val(dst) + doff;
  int64_t j = (int64_t) tweak;
  __m128i x[2] = { tweaked(load(s + a), j), tweaked(load(s + b), j + 1) };
  hash_blocks(Bytes_val(keys), x, 2);
  store(d, x[0]);
  store(d + 16, x[1]);
  return Val_unit;
}

#else

CAMLprim value secyan_aes_ni_available(value unit)
{
  (void) unit;
  return Val_false;
}

CAMLprim value secyan_aes_encrypt(value keys, value src, value dst)
{
  (void) keys; (void) src; (void) dst;
  abort();
}

CAMLprim int64_t secyan_aes_hash_half(value keys, int64_t tweak, int64_t hi, int64_t lo,
                                      intnat half)
{
  (void) keys; (void) tweak; (void) hi; (void) lo; (void) half;
  abort();
}

CAMLprim value secyan_aes_garble_and(value keys, intnat tweak, value src, intnat a,
                                     intnat b, value dst, intnat doff)
{
  (void) keys; (void) tweak; (void) src; (void) a; (void) b; (void) dst; (void) doff;
  abort();
}

CAMLprim value secyan_aes_eval_and(value keys, intnat tweak, value src, intnat a,
                                   intnat b, value dst, intnat doff)
{
  (void) keys; (void) tweak; (void) src; (void) a; (void) b; (void) dst; (void) doff;
  abort();
}

#endif

/* Bytecode entry points: boxed arguments and results, and the argv form
   for more than five arguments. */

CAMLprim value secyan_aes_hash_half_byte(value keys, value tweak, value hi, value lo,
                                         value half)
{
  return caml_copy_int64(secyan_aes_hash_half(keys, Int64_val(tweak), Int64_val(hi),
                                              Int64_val(lo), Long_val(half)));
}

CAMLprim value secyan_aes_garble_and_byte(value *argv, int argn)
{
  (void) argn;
  return secyan_aes_garble_and(argv[0], Long_val(argv[1]), argv[2], Long_val(argv[3]),
                               Long_val(argv[4]), argv[5], Long_val(argv[6]));
}

CAMLprim value secyan_aes_eval_and_byte(value *argv, int argn)
{
  (void) argn;
  return secyan_aes_eval_and(argv[0], Long_val(argv[1]), argv[2], Long_val(argv[3]),
                             Long_val(argv[4]), argv[5], Long_val(argv[6]));
}
