/* The CRC-32 register update behind [Util.Crc32]: IEEE 802.3
   polynomial, reflected, on the raw register (the caller does the pre-
   and post-inversion). Two kernels compute the same function.

   - [table_update]: portable slicing-by-8. Eight 256-entry tables,
     built once by [util_crc32_select]; table k gives a byte's
     contribution when k more bytes follow it in the current 8-byte step.
   - [clmul_update] (x86-64 with PCLMULQDQ): folds four 128-bit lanes
     per 64 bytes with carry-less multiplies, then one lane per 16
     bytes, and ends with a Barrett reduction to 32 bits. The constants
     are the bit-reflected ones of Gopal et al., "Fast CRC Computation
     for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009):
     k1..k5 are x^e mod P for the fold distances, P' = P with its x^32
     term, mu = floor(x^64 / P), all reflected. Only these functions are
     compiled for pclmul/sse4.1, so the library's flags do not change.

   [util_crc32_select] runs once, when the OCaml module initialises: it
   builds the tables and picks the kernel from the CPU. Both update
   entries are [@@noalloc] with untagged ints, and take a byte range the
   OCaml side has already checked. */

#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static uint32_t tables[8][256];

static uint32_t table_update(uint32_t crc, const unsigned char *p, size_t len)
{
  while (len >= 8) {
    uint32_t c = crc ^ ((uint32_t)p[0] | (uint32_t)p[1] << 8
                        | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24);
    crc = tables[7][c & 0xff] ^ tables[6][(c >> 8) & 0xff]
          ^ tables[5][(c >> 16) & 0xff] ^ tables[4][c >> 24]
          ^ tables[3][p[4]] ^ tables[2][p[5]] ^ tables[1][p[6]] ^ tables[0][p[7]];
    p += 8;
    len -= 8;
  }
  while (len--) crc = tables[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return crc;
}

static uint32_t (*kernel)(uint32_t, const unsigned char *, size_t) = table_update;
static const char *kernel_name = "table";

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

#define CLMUL __attribute__((target("pclmul,sse4.1")))

/* [len] >= 64 and a multiple of 16. */
CLMUL static uint32_t clmul_fold(uint32_t crc, const unsigned char *p, size_t len)
{
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1, x2, x3, x4, t;

#define FOLD(x, k, next)                                   \
  (t = _mm_clmulepi64_si128((x), (k), 0x00),               \
   (x) = _mm_clmulepi64_si128((x), (k), 0x11),             \
   (x) = _mm_xor_si128(_mm_xor_si128((x), t), (next)))

  x1 = _mm_xor_si128(_mm_loadu_si128((const __m128i *)p), _mm_cvtsi32_si128((int)crc));
  x2 = _mm_loadu_si128((const __m128i *)(p + 16));
  x3 = _mm_loadu_si128((const __m128i *)(p + 32));
  x4 = _mm_loadu_si128((const __m128i *)(p + 48));
  p += 64;
  len -= 64;
  /* four lanes, each folded forward 512 bits onto the next 64 bytes */
  while (len >= 64) {
    FOLD(x1, k1k2, _mm_loadu_si128((const __m128i *)p));
    FOLD(x2, k1k2, _mm_loadu_si128((const __m128i *)(p + 16)));
    FOLD(x3, k1k2, _mm_loadu_si128((const __m128i *)(p + 32)));
    FOLD(x4, k1k2, _mm_loadu_si128((const __m128i *)(p + 48)));
    p += 64;
    len -= 64;
  }
  /* the lanes into one, then 16 bytes at a time, 128 bits apart */
  FOLD(x1, k3k4, x2);
  FOLD(x1, k3k4, x3);
  FOLD(x1, k3k4, x4);
  while (len >= 16) {
    FOLD(x1, k3k4, _mm_loadu_si128((const __m128i *)p));
    p += 16;
    len -= 16;
  }
#undef FOLD

  /* 128 bits to 64, then Barrett reduction to 32 */
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return (uint32_t)_mm_extract_epi32(x1, 1);
}

static uint32_t clmul_update(uint32_t crc, const unsigned char *p, size_t len)
{
  if (len >= 64) {
    size_t n = len & ~(size_t)15;
    crc = clmul_fold(crc, p, n);
    p += n;
    len -= n;
  }
  return table_update(crc, p, len);
}
#endif

value util_crc32_select(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int j = 0; j < 8; j++) c = (c & 1) ? 0xedb88320 ^ (c >> 1) : c >> 1;
    tables[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++)
      tables[k][n] = (tables[k - 1][n] >> 8) ^ tables[0][tables[k - 1][n] & 0xff];
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    kernel = clmul_update;
    kernel_name = "pclmul";
  }
#endif
  return caml_copy_string(kernel_name);
}

intnat util_crc32_update(intnat crc, value b, intnat off, intnat len)
{
  return kernel((uint32_t)crc, (const unsigned char *)Bytes_val(b) + off, (size_t)len);
}

intnat util_crc32_table_update(intnat crc, value b, intnat off, intnat len)
{
  return table_update((uint32_t)crc, (const unsigned char *)Bytes_val(b) + off, (size_t)len);
}

value util_crc32_update_byte(value crc, value b, value off, value len)
{
  return Val_long(util_crc32_update(Long_val(crc), b, Long_val(off), Long_val(len)));
}

value util_crc32_table_update_byte(value crc, value b, value off, value len)
{
  return Val_long(util_crc32_table_update(Long_val(crc), b, Long_val(off), Long_val(len)));
}
