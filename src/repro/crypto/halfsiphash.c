/* HalfSipHash-c-d, HalfSipHash._sip_round on uint32_t, as a CPython
 * extension module that halfsiphash.py builds once and loads on the first
 * digest: digest(key, msg, c, d) and digest_from_state(v0, v1, v2, v3, msg,
 * start, c, d), METH_FASTCALL, msg read through the buffer protocol. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define ROTL(x, r) ((uint32_t)((x) << (r) | (x) >> (32 - (r))))

typedef unsigned long long ull;

static void rounds(uint32_t v[4], ull n)
{
    for (; n > 0; n--) {
        v[0] += v[1]; v[1] = ROTL(v[1], 5) ^ v[0]; v[0] = ROTL(v[0], 16);
        v[2] += v[3]; v[3] = ROTL(v[3], 8) ^ v[2];
        v[0] += v[3]; v[3] = ROTL(v[3], 7) ^ v[0];
        v[2] += v[1]; v[1] = ROTL(v[1], 13) ^ v[2]; v[2] = ROTL(v[2], 16);
    }
}

/* The tag of msg from a state that has absorbed its first `start` bytes
 * (halfsiphash.py checks it is a block boundary); the last word holds the
 * tail bytes and the length byte on top.  Releases msg. */
static PyObject *absorb(uint32_t v0, uint32_t v1, uint32_t v2, uint32_t v3,
                        Py_buffer *msg, size_t start, ull c, ull d)
{
    const unsigned char *m = msg->buf;
    size_t i, j, len = (size_t)msg->len, tail = len & ~(size_t)3;
    uint32_t v[4] = {v0, v1, v2, v3}, w;
    for (i = start; i <= tail; i += 4) {
        w = i < tail ? 0 : (uint32_t)(len & 0xFF) << 24;
        for (j = i; j < i + 4 && j < len; j++)
            w |= (uint32_t)m[j] << 8 * (j - i);
        v[3] ^= w; rounds(v, c); v[0] ^= w;
    }
    PyBuffer_Release(msg);
    v[2] ^= 0xFF; rounds(v, d);
    return PyLong_FromUnsignedLong(v[1] ^ v[3]);
}

/* args[0:n] as unsigned ints into out: 0, or -1 with the exception set. */
static int uints(PyObject *const *args, Py_ssize_t n, ull *out)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++)
        if ((out[i] = PyLong_AsUnsignedLongLong(args[i])) == (ull)-1
                && PyErr_Occurred())
            return -1;
    return 0;
}

static PyObject *digest(PyObject *self, PyObject *const *args, Py_ssize_t n)
{
    ull key, cd[2];
    uint32_t k0, k1;
    Py_buffer msg;
    if (n != 4)
        return PyErr_Format(PyExc_TypeError, "expected 4 arguments");
    if (uints(args, 1, &key) < 0 || uints(args + 2, 2, cd) < 0
            || PyObject_GetBuffer(args[1], &msg, PyBUF_SIMPLE) < 0)
        return NULL;
    k0 = (uint32_t)key, k1 = (uint32_t)(key >> 32);
    return absorb(k0, k1, k0 ^ 0x6C796765, k1 ^ 0x74656462, &msg, 0,
                  cd[0], cd[1]);
}

static PyObject *digest_from_state(PyObject *self, PyObject *const *args,
                                   Py_ssize_t n)
{
    ull v[4], t[3];  /* the state; start, c, d */
    Py_buffer msg;
    if (n != 8)
        return PyErr_Format(PyExc_TypeError, "expected 8 arguments");
    if (uints(args, 4, v) < 0 || uints(args + 5, 3, t) < 0
            || PyObject_GetBuffer(args[4], &msg, PyBUF_SIMPLE) < 0)
        return NULL;
    return absorb((uint32_t)v[0], (uint32_t)v[1], (uint32_t)v[2],
                  (uint32_t)v[3], &msg, (size_t)t[0], t[1], t[2]);
}

static PyMethodDef methods[] = {
    {"digest", (PyCFunction)(void (*)(void))digest, METH_FASTCALL, NULL},
    {"digest_from_state", (PyCFunction)(void (*)(void))digest_from_state,
     METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_halfsiphash", NULL, 0, methods};

PyMODINIT_FUNC PyInit__halfsiphash(void) { return PyModuleDef_Init(&module); }
