/**
 * @file
 * The ADX Montgomery bodies for the 16- and 32-limb kernels, and the
 * once-per-process choice between them and the portable body.
 *
 * Every row of products is unrolled over its fixed width by GNU as
 * macros. MULX forms each 64x64 product without touching the flags;
 * ADCX adds the low halves on the carry flag and ADOX the high halves
 * on the overflow flag, so the two carry chains run side by side.
 *
 * - The multiply is CIOS. Row i makes two passes over the width:
 *   t += a[i] * b, then m = t[0] * n0inv and t = (t + m * n) >> 64.
 *   t (k + 1 limbs) lives on the stack, its carry bit in a register.
 * - The squaring forms the products a[i] * a[j] for i < j once, then
 *   doubles them while adding the squares a[i]^2 (the doubling on CF,
 *   the squares on OF), then reduces the 2k-limb square by REDC: row i
 *   adds m * n at limb i, m = t[i] * n0inv. That is about 1.5 k^2
 *   products against the multiply's 2 k^2.
 * - Both end in the same final subtraction: t - n always runs as a
 *   borrow chain, and CMOV keeps t where it borrowed. No branch and no
 *   load address depends on the operands.
 *
 * The mnemonics need no compiler flag: GNU as takes them on any x86-64
 * build, and montUsesAdx() is what lets them run.
 */

#include "crypto/montgomery.hh"

namespace mintcb::crypto
{

namespace
{

/** Probed once, before main; a read from an earlier static initialiser
 *  sees the zero-initialised false and takes the portable body. */
const bool useAdx = montAdxAvailable();

} // namespace

bool
montAdxAvailable()
{
#if MINTCB_MONT_ADX
    __builtin_cpu_init();
    return __builtin_cpu_supports("adx") && __builtin_cpu_supports("bmi2");
#else
    return false;
#endif
}

bool
montUsesAdx()
{
    return useAdx;
}

} // namespace mintcb::crypto

#if MINTCB_MONT_ADX
// System V arguments: %rdi = out, %rsi = a, then the multiply's
// %rdx = b, %rcx = n, %r8 = n0inv and the squaring's %rdx = n,
// %rcx = n0inv (moved to %rcx = n, %r8 = n0inv). Both keep %rax = the
// limb being summed, %r10/%rbx = the high halves of the current and
// previous products, %r12 = 0 and %r13 = the carry out of t's top limb.
asm(R"(
    .pushsection .text

# \sum = \acc + lo(rdx * \src) on CF + \hprev on OF; \hcur = the high half
.macro MONT_ADX_STEP src, acc, sum, hprev, hcur
    mulxq   \src, %rax, \hcur
    adcxq   \acc, %rax
    adoxq   \hprev, %rax
    movq    %rax, \sum
.endm

# One row of products, rdx times \count limbs: one step for each
# j = \from .. \from + \count - 1, with .Lmont_j = j in the operands.
# The high halves alternate %r10 and %rbx; %rbx, zeroed with both
# flags, is the first previous one, and the last ends in %rbx.
.macro MONT_ADX_ROW src, acc, sum, from, count
    xorl    %ebx, %ebx
    .set    .Lmont_j, \from
    .rept   \count
    .if     (.Lmont_j - (\from)) & 1
    MONT_ADX_STEP \src, \acc, \sum, %r10, %rbx
    .else
    MONT_ADX_STEP \src, \acc, \sum, %rbx, %r10
    .endif
    .set    .Lmont_j, .Lmont_j + 1
    .endr
    .if     (\count) & 1
    movq    %r10, %rbx
    .endif
.endm

# \count limbs from \at(%rsp) = 0
.macro MONT_ADX_ZERO at, count
    .set    .Lmont_j, 0
    .rept   \count
    movq    %r12, \at+8*.Lmont_j(%rsp)
    .set    .Lmont_j, .Lmont_j + 1
    .endr
.endm

# out = (%r13:t) mod n for the k-limb t at \at(%rsp), below 2n:
# out = t - n, then out = t where that borrowed (t < n)
.macro MONT_ADX_SELECT at, k
    movq    \at(%rsp), %rax
    subq    (%rcx), %rax
    movq    %rax, (%rdi)
    .set    .Lmont_j, 1
    .rept   \k - 1
    movq    \at+8*.Lmont_j(%rsp), %rax
    sbbq    8*.Lmont_j(%rcx), %rax
    movq    %rax, 8*.Lmont_j(%rdi)
    .set    .Lmont_j, .Lmont_j + 1
    .endr
    sbbq    $0, %r13
    .set    .Lmont_j, 0
    .rept   \k
    movq    8*.Lmont_j(%rdi), %rax
    cmovcq  \at+8*.Lmont_j(%rsp), %rax
    movq    %rax, 8*.Lmont_j(%rdi)
    .set    .Lmont_j, .Lmont_j + 1
    .endr
.endm

# Save %rbx, %r12, %r13 and reserve \frame bytes; %r12 = 0.
.macro MONT_ADX_ENTER name, frame
    .globl  \name
    .type   \name, @function
    .p2align 5
\name:
    .cfi_startproc
    pushq   %rbx
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbx, 0
    pushq   %r12
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r12, 0
    pushq   %r13
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r13, 0
    subq    $\frame, %rsp
    .cfi_adjust_cfa_offset \frame
    xorl    %r12d, %r12d
.endm

.macro MONT_ADX_LEAVE name, frame
    addq    $\frame, %rsp
    .cfi_adjust_cfa_offset -(\frame)
    popq    %r13
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r13
    popq    %r12
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r12
    popq    %rbx
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbx
    ret
    .cfi_endproc
    .size   \name, . - \name
.endm

# Frame: 0(%rsp) takes the reduction pass's discarded limb and
# 8(%rsp) .. 8 + 8k(%rsp) hold t[0..k]; %r11 = b, %r9 = rows left.
.macro MONT_ADX_MUL name, k
    MONT_ADX_ENTER \name, 8*(\k+2)
    movq    %rdx, %r11
    MONT_ADX_ZERO 8, \k+1
    movl    $\k, %r9d

1:  # t += a[i] * b; %r13 = the carry out of t[k]
    movq    (%rsi), %rdx
    MONT_ADX_ROW 8*.Lmont_j(%r11), 8+8*.Lmont_j(%rsp), 8+8*.Lmont_j(%rsp), 0, \k
    movq    8+8*\k(%rsp), %rax
    adcxq   %rbx, %rax
    adoxq   %r12, %rax
    movq    %rax, 8+8*\k(%rsp)
    movl    $0, %r13d
    adcxq   %r12, %r13
    adoxq   %r12, %r13

    # m = t[0] * n0inv; t = (t + m * n) >> 64
    movq    8(%rsp), %rdx
    imulq   %r8, %rdx
    MONT_ADX_ROW 8*.Lmont_j(%rcx), 8+8*.Lmont_j(%rsp), 8*.Lmont_j(%rsp), 0, \k
    movq    8+8*\k(%rsp), %rax
    adcxq   %rbx, %rax
    adoxq   %r12, %rax
    movq    %rax, 8*\k(%rsp)
    adcxq   %r12, %r13
    adoxq   %r12, %r13
    movq    %r13, 8+8*\k(%rsp)

    addq    $8, %rsi
    decl    %r9d
    jnz     1b

    MONT_ADX_SELECT 8, \k
    MONT_ADX_LEAVE \name, 8*(\k+2)
.endm

# Frame: 0(%rsp) .. 8(2k - 1)(%rsp) hold the square t[0..2k-1];
# %r9 = &t[i] and %r11 = rows left in REDC.
.macro MONT_ADX_SQR name, k
    MONT_ADX_ENTER \name, 16*\k
    movq    %rcx, %r8
    movq    %rdx, %rcx
    MONT_ADX_ZERO 0, 2*\k

    # t = the products a[i] * a[j] for i < j; row i ends in the fresh
    # t[i + k], which the carries cannot overflow
    .set    .Lmont_i, 0
    .rept   \k - 1
    movq    8*.Lmont_i(%rsi), %rdx
    MONT_ADX_ROW 8*.Lmont_j(%rsi), 8*(.Lmont_i+.Lmont_j)(%rsp), 8*(.Lmont_i+.Lmont_j)(%rsp), .Lmont_i+1, \k-1-.Lmont_i
    adcxq   %r12, %rbx
    adoxq   %r12, %rbx
    movq    %rbx, 8*(.Lmont_i+\k)(%rsp)
    .set    .Lmont_i, .Lmont_i + 1
    .endr

    # t = 2t + the squares a[i]^2 at limb 2i; nothing carries out
    xorl    %ebx, %ebx
    .set    .Lmont_i, 0
    .rept   \k
    movq    8*.Lmont_i(%rsi), %rdx
    mulxq   %rdx, %rax, %r10
    movq    16*.Lmont_i(%rsp), %r11
    adcxq   %r11, %r11
    adoxq   %rax, %r11
    movq    %r11, 16*.Lmont_i(%rsp)
    movq    16*.Lmont_i+8(%rsp), %r11
    adcxq   %r11, %r11
    adoxq   %r10, %r11
    movq    %r11, 16*.Lmont_i+8(%rsp)
    .set    .Lmont_i, .Lmont_i + 1
    .endr

    # REDC: t += m * n at limb i, m = t[i] * n0inv; %r13 carries the
    # carry out of t[i + k] into the next row's
    movq    %rsp, %r9
    xorl    %r13d, %r13d
    movl    $\k, %r11d
1:  movq    (%r9), %rdx
    imulq   %r8, %rdx
    MONT_ADX_ROW 8*.Lmont_j(%rcx), 8*.Lmont_j(%r9), 8*.Lmont_j(%r9), 0, \k
    movq    8*\k(%r9), %rax
    adcxq   %rbx, %rax
    adoxq   %r13, %rax
    movq    %rax, 8*\k(%r9)
    movl    $0, %r13d
    adcxq   %r12, %r13
    adoxq   %r12, %r13
    addq    $8, %r9
    decl    %r11d
    jnz     1b

    MONT_ADX_SELECT 8*\k, \k
    MONT_ADX_LEAVE \name, 16*\k
.endm

    MONT_ADX_MUL mintcbMontMulAdx16, 16
    MONT_ADX_MUL mintcbMontMulAdx32, 32
    MONT_ADX_SQR mintcbMontSqrAdx16, 16
    MONT_ADX_SQR mintcbMontSqrAdx32, 32
    .popsection
)");
#endif
