// The 8-limb Montgomery kernel: out = a * b * R^-1 mod n for a 449- to
// 512-bit odd n, R = 2^512. Eight limbs are each half of an RSA-1024 CRT
// private operation and Miller-Rabin during 1024-bit key generation.
//
// Separated operand scanning with two carry chains per row (Ozturk et al.,
// "New Instructions Supporting Large Integer Arithmetic on Intel
// Architecture Processors", Intel 2012): MULX forms each 128-bit product
// without touching the flags, ADCX adds its low word along the CF chain
// and ADOX its high word along the OF chain.
//
// 1. Eight product rows give T = a * b. Row i adds a_i * b into a window of
//    eight registers holding words i..i+7; word i is then final and goes
//    to the stack, and its register becomes word i+8 of the next row.
// 2. Eight reduction rows, built the same way, add m_i * n with
//    m_i = w_i * n0inv to the low half T_lo, clearing one word per row.
//    Their result V = (T_lo + M * n) / R is at most n and fits in eight
//    words: T_lo + M * n < R + R * n.
// 3. V + T_hi < 2n, where T_hi = floor(T / R) < n, so one subtraction of
//    n, kept or dropped by CMOV on the ninth-word borrow, lands in [0, n).
//
// The kernel needs 15 general registers, so it is a standalone SysV
// function that saves the callee-saved ones. It is file-scope asm rather
// than extended inline asm, which could not claim %rbp under frame
// pointers, and it stays in a .cpp so the library builds from a CXX-only
// project. Sanitizers do not instrument it; the differential tests in
// tests/crypto/montgomery_kernels_test.cpp are its oracle.
#include "src/crypto/montgomery_kernels.h"

#if defined(__x86_64__)

// out = rdi, a = rsi, b = rdx, n = rcx, n0inv = r8. Stack: T[0..15] at
// 0..127(%rsp), out at 128(%rsp).
extern "C" void et_crypto_mont_mul8_adx(std::uint64_t* out,
                                        const std::uint64_t* a,
                                        const std::uint64_t* b,
                                        const std::uint64_t* n,
                                        std::uint64_t n0inv);

// One row: window w0..w7 += rdx * src[0..7]; afterwards w0 holds the new
// top word and w1..w7, w0 is the next row's window. rbx and rax are
// scratch. A product row passes `spill`, where the finished word w0 goes.
asm(R"(
        .pushsection .text, "ax", @progbits
        .macro ET_MONT8_ROW src, w0, w1, w2, w3, w4, w5, w6, w7, spill
        xorl    %ebx, %ebx
        mulx    0(\src), %rax, %rbx
        adcx    %rax, \w0
        adox    %rbx, \w1
        mulx    8(\src), %rax, %rbx
        adcx    %rax, \w1
        adox    %rbx, \w2
        mulx    16(\src), %rax, %rbx
        adcx    %rax, \w2
        adox    %rbx, \w3
        mulx    24(\src), %rax, %rbx
        adcx    %rax, \w3
        adox    %rbx, \w4
        mulx    32(\src), %rax, %rbx
        adcx    %rax, \w4
        adox    %rbx, \w5
        mulx    40(\src), %rax, %rbx
        adcx    %rax, \w5
        adox    %rbx, \w6
        mulx    48(\src), %rax, %rbx
        adcx    %rax, \w6
        adox    %rbx, \w7
        .ifnb \spill
        movq    \w0, \spill
        .endif
        mulx    56(\src), %rax, \w0
        adcx    %rax, \w7
        movl    $0, %ebx
        adox    %rbx, \w0
        adcx    %rbx, \w0
        .endm

        .p2align 5
        .globl  et_crypto_mont_mul8_adx
        .hidden et_crypto_mont_mul8_adx
        .type   et_crypto_mont_mul8_adx, @function
et_crypto_mont_mul8_adx:
        .cfi_startproc
        pushq   %rbp
        .cfi_adjust_cfa_offset 8
        .cfi_offset %rbp, -16
        pushq   %rbx
        .cfi_adjust_cfa_offset 8
        .cfi_offset %rbx, -24
        pushq   %r12
        .cfi_adjust_cfa_offset 8
        .cfi_offset %r12, -32
        pushq   %r13
        .cfi_adjust_cfa_offset 8
        .cfi_offset %r13, -40
        pushq   %r14
        .cfi_adjust_cfa_offset 8
        .cfi_offset %r14, -48
        pushq   %r15
        .cfi_adjust_cfa_offset 8
        .cfi_offset %r15, -56
        subq    $136, %rsp
        .cfi_adjust_cfa_offset 136
        movq    %rdi, 128(%rsp)
        movq    %rdx, %rdi              # b
        movq    %r8, %rbp               # n0inv

        # Product row 0 starts from an empty window: one ADD/ADC chain.
        movq    0(%rsi), %rdx
        mulx    0(%rdi), %r8, %r9
        movq    %r8, 0(%rsp)
        mulx    8(%rdi), %rax, %r10
        addq    %rax, %r9
        mulx    16(%rdi), %rax, %r11
        adcq    %rax, %r10
        mulx    24(%rdi), %rax, %r12
        adcq    %rax, %r11
        mulx    32(%rdi), %rax, %r13
        adcq    %rax, %r12
        mulx    40(%rdi), %rax, %r14
        adcq    %rax, %r13
        mulx    48(%rdi), %rax, %r15
        adcq    %rax, %r14
        mulx    56(%rdi), %rax, %r8
        adcq    %rax, %r15
        adcq    $0, %r8

        movq    8(%rsi), %rdx
        ET_MONT8_ROW %rdi, %r9, %r10, %r11, %r12, %r13, %r14, %r15, %r8, 8(%rsp)
        movq    16(%rsi), %rdx
        ET_MONT8_ROW %rdi, %r10, %r11, %r12, %r13, %r14, %r15, %r8, %r9, 16(%rsp)
        movq    24(%rsi), %rdx
        ET_MONT8_ROW %rdi, %r11, %r12, %r13, %r14, %r15, %r8, %r9, %r10, 24(%rsp)
        movq    32(%rsi), %rdx
        ET_MONT8_ROW %rdi, %r12, %r13, %r14, %r15, %r8, %r9, %r10, %r11, 32(%rsp)
        movq    40(%rsi), %rdx
        ET_MONT8_ROW %rdi, %r13, %r14, %r15, %r8, %r9, %r10, %r11, %r12, 40(%rsp)
        movq    48(%rsi), %rdx
        ET_MONT8_ROW %rdi, %r14, %r15, %r8, %r9, %r10, %r11, %r12, %r13, 48(%rsp)
        movq    56(%rsi), %rdx
        ET_MONT8_ROW %rdi, %r15, %r8, %r9, %r10, %r11, %r12, %r13, %r14, 56(%rsp)

        # r8..r15 = T_hi: park it and load T_lo for the reduction.
        movq    %r8, 64(%rsp)
        movq    %r9, 72(%rsp)
        movq    %r10, 80(%rsp)
        movq    %r11, 88(%rsp)
        movq    %r12, 96(%rsp)
        movq    %r13, 104(%rsp)
        movq    %r14, 112(%rsp)
        movq    %r15, 120(%rsp)
        movq    0(%rsp), %r8
        movq    8(%rsp), %r9
        movq    16(%rsp), %r10
        movq    24(%rsp), %r11
        movq    32(%rsp), %r12
        movq    40(%rsp), %r13
        movq    48(%rsp), %r14
        movq    56(%rsp), %r15

        movq    %r8, %rdx
        imulq   %rbp, %rdx
        ET_MONT8_ROW %rcx, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
        movq    %r9, %rdx
        imulq   %rbp, %rdx
        ET_MONT8_ROW %rcx, %r9, %r10, %r11, %r12, %r13, %r14, %r15, %r8
        movq    %r10, %rdx
        imulq   %rbp, %rdx
        ET_MONT8_ROW %rcx, %r10, %r11, %r12, %r13, %r14, %r15, %r8, %r9
        movq    %r11, %rdx
        imulq   %rbp, %rdx
        ET_MONT8_ROW %rcx, %r11, %r12, %r13, %r14, %r15, %r8, %r9, %r10
        movq    %r12, %rdx
        imulq   %rbp, %rdx
        ET_MONT8_ROW %rcx, %r12, %r13, %r14, %r15, %r8, %r9, %r10, %r11
        movq    %r13, %rdx
        imulq   %rbp, %rdx
        ET_MONT8_ROW %rcx, %r13, %r14, %r15, %r8, %r9, %r10, %r11, %r12
        movq    %r14, %rdx
        imulq   %rbp, %rdx
        ET_MONT8_ROW %rcx, %r14, %r15, %r8, %r9, %r10, %r11, %r12, %r13
        movq    %r15, %rdx
        imulq   %rbp, %rdx
        ET_MONT8_ROW %rcx, %r15, %r8, %r9, %r10, %r11, %r12, %r13, %r14

        # r8..r15 = V. Sum V + T_hi, its ninth word in rax.
        addq    64(%rsp), %r8
        adcq    72(%rsp), %r9
        adcq    80(%rsp), %r10
        adcq    88(%rsp), %r11
        adcq    96(%rsp), %r12
        adcq    104(%rsp), %r13
        adcq    112(%rsp), %r14
        adcq    120(%rsp), %r15
        movl    $0, %eax
        adcq    $0, %rax

        # Sum - n into T[0..7]; the borrow out of the ninth word says the
        # sum is below n and stays.
        movq    %r8, %rbx
        subq    0(%rcx), %rbx
        movq    %rbx, 0(%rsp)
        movq    %r9, %rbx
        sbbq    8(%rcx), %rbx
        movq    %rbx, 8(%rsp)
        movq    %r10, %rbx
        sbbq    16(%rcx), %rbx
        movq    %rbx, 16(%rsp)
        movq    %r11, %rbx
        sbbq    24(%rcx), %rbx
        movq    %rbx, 24(%rsp)
        movq    %r12, %rbx
        sbbq    32(%rcx), %rbx
        movq    %rbx, 32(%rsp)
        movq    %r13, %rbx
        sbbq    40(%rcx), %rbx
        movq    %rbx, 40(%rsp)
        movq    %r14, %rbx
        sbbq    48(%rcx), %rbx
        movq    %rbx, 48(%rsp)
        movq    %r15, %rbx
        sbbq    56(%rcx), %rbx
        movq    %rbx, 56(%rsp)
        sbbq    $0, %rax
        cmovncq 0(%rsp), %r8
        cmovncq 8(%rsp), %r9
        cmovncq 16(%rsp), %r10
        cmovncq 24(%rsp), %r11
        cmovncq 32(%rsp), %r12
        cmovncq 40(%rsp), %r13
        cmovncq 48(%rsp), %r14
        cmovncq 56(%rsp), %r15

        movq    128(%rsp), %rdi
        movq    %r8, 0(%rdi)
        movq    %r9, 8(%rdi)
        movq    %r10, 16(%rdi)
        movq    %r11, 24(%rdi)
        movq    %r12, 32(%rdi)
        movq    %r13, 40(%rdi)
        movq    %r14, 48(%rdi)
        movq    %r15, 56(%rdi)

        addq    $136, %rsp
        .cfi_adjust_cfa_offset -136
        popq    %r15
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r15
        popq    %r14
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r14
        popq    %r13
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r13
        popq    %r12
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r12
        popq    %rbx
        .cfi_adjust_cfa_offset -8
        .cfi_restore %rbx
        popq    %rbp
        .cfi_adjust_cfa_offset -8
        .cfi_restore %rbp
        ret
        .cfi_endproc
        .size   et_crypto_mont_mul8_adx, .-et_crypto_mont_mul8_adx
        .purgem ET_MONT8_ROW
        .popsection
)");

namespace et::crypto::kernels {

bool mont_mul8_available() {
  // Idempotent, and needed when a key is built before the constructor
  // that normally runs it.
  __builtin_cpu_init();
  return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
}

void mont_mul8(std::uint64_t* out, const std::uint64_t* a,
               const std::uint64_t* b, const std::uint64_t* n,
               std::uint64_t n0inv) {
  et_crypto_mont_mul8_adx(out, a, b, n, n0inv);
}

}  // namespace et::crypto::kernels

#else  // !__x86_64__

namespace et::crypto::kernels {

bool mont_mul8_available() { return false; }

void mont_mul8(std::uint64_t* out, const std::uint64_t* a,
               const std::uint64_t* b, const std::uint64_t* n,
               std::uint64_t n0inv) {
  mont_mul_portable(out, a, b, n, n0inv, 8);
}

}  // namespace et::crypto::kernels

#endif  // __x86_64__
