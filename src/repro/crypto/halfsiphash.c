/* HalfSipHash-c-d, HalfSipHash._sip_round on uint32_t: C99, no Python.h.
 * halfsiphash.py builds it once and calls it through ctypes. */
#include <stdint.h>

#define ROTL(x, r) ((uint32_t)((x) << (r) | (x) >> (32 - (r))))

static void rounds(uint32_t v[4], int n)
{
    for (; n > 0; n--) {
        v[0] += v[1]; v[1] = ROTL(v[1], 5) ^ v[0]; v[0] = ROTL(v[0], 16);
        v[2] += v[3]; v[3] = ROTL(v[3], 8) ^ v[2];
        v[0] += v[3]; v[3] = ROTL(v[3], 7) ^ v[0];
        v[2] += v[1]; v[1] = ROTL(v[1], 13) ^ v[2]; v[2] = ROTL(v[2], 16);
    }
}

/* The tag of msg[0:len] from a state that has absorbed its first `start`
 * bytes; the last word holds the tail bytes and the length byte on top. */
uint32_t hsh_state(uint32_t v0, uint32_t v1, uint32_t v2, uint32_t v3,
                   const unsigned char *msg, uint64_t len, uint64_t start,
                   int c, int d)
{
    uint32_t v[4] = {v0, v1, v2, v3}, m;
    uint64_t i, j, tail = len & ~(uint64_t)3;
    for (i = start; i <= tail; i += 4) {
        m = i < tail ? 0 : (uint32_t)(len & 0xFF) << 24;
        for (j = i; j < i + 4 && j < len; j++)
            m |= (uint32_t)msg[j] << 8 * (j - i);
        v[3] ^= m; rounds(v, c); v[0] ^= m;
    }
    v[2] ^= 0xFF; rounds(v, d);
    return v[1] ^ v[3];
}

uint32_t hsh_key(uint64_t key, const unsigned char *msg, uint64_t len,
                 int c, int d)
{
    uint32_t k0 = (uint32_t)key, k1 = (uint32_t)(key >> 32);
    return hsh_state(k0, k1, k0 ^ 0x6C796765, k1 ^ 0x74656462,
                     msg, len, 0, c, d);
}
